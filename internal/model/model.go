// Package model implements the persisted form of a fitted partition-driven
// MKL model: a versioned, self-describing artifact that captures everything
// inference needs — the selected feature partition, a serializable kernel
// spec (internal/kernel.Spec), the training feature rows, the dual
// coefficients, the bias, and the learner kind — with Save/Load and a
// bit-identical round-trip guarantee.
//
// # File format (.iotml)
//
//	bytes 0..7    magic "IOTMLART"
//	bytes 8..11   uint32 LE header length H
//	bytes 12..    H bytes of JSON header (see header struct)
//	then          payload: n_train*dim float64 LE (training rows,
//	              row-major), then n_train float64 LE (dual coefficients)
//
// Floats cross the payload as raw IEEE-754 bits (math.Float64bits), and the
// few floats in the JSON header (bias, kernel parameters) use Go's
// shortest-round-trip encoding, so Load(Save(a)) reproduces every number
// bit-for-bit — the property the round-trip test suite pins. The header
// carries a CRC-32 of the payload; Load rejects corrupt or truncated files
// and artifacts written by a different format version with explicit errors.
package model

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/crc64"
	"io"
	"math"
	"os"

	"repro/internal/kernel"
	"repro/internal/kernelmachine"
	"repro/internal/linalg"
	"repro/internal/partition"
)

// FormatVersion is the artifact format this build reads and writes. Bump it
// on any incompatible layout or semantics change; Load refuses other
// versions rather than guess.
const FormatVersion = 1

// magic identifies an artifact file. Its length is fixed at 8 bytes.
const magic = "IOTMLART"

// Learner kinds recognized by the serving stack.
const (
	LearnerRidge      = "ridge"
	LearnerSVM        = "svm"
	LearnerPerceptron = "perceptron"
)

// LearnerKindOf tags a trainer with its artifact learner kind. Trainers
// outside the built-in set are labeled by their display string: inference
// only needs the dual form, so unknown kinds still serve.
func LearnerKindOf(tr kernelmachine.Trainer) string {
	switch tr.(type) {
	case kernelmachine.Ridge:
		return LearnerRidge
	case kernelmachine.SVM:
		return LearnerSVM
	case kernelmachine.Perceptron:
		return LearnerPerceptron
	default:
		return tr.String()
	}
}

// Artifact is a fitted model in persistable form. The zero value is not
// usable; build one from a fit via core.FitResult.Artifact or read one with
// Load/LoadFile.
type Artifact struct {
	// LearnerKind tags the trainer family ("ridge", "svm", "perceptron") —
	// informational at inference time (all learners share the dual scoring
	// form) but recorded so an artifact is self-describing.
	LearnerKind string
	// Learner is the trainer's display string, e.g. "ridge(λ=0.01)".
	Learner string
	// Partition is the selected feature partition (1-based features).
	Partition partition.Partition
	// KernelSpec describes the multiple-kernel configuration; the kernel is
	// rebuilt from it at load time (kernel.Spec.FromSpec).
	KernelSpec *kernel.Spec
	// FeatureNames are the training dataset's column names (optional).
	FeatureNames []string
	// TrainX holds the training feature rows the dual form scores against
	// (row-major, NumTrain×Dim).
	TrainX *linalg.Matrix
	// Coeff are the dual coefficients, one per training row.
	Coeff []float64
	// Bias is the intercept of the dual scoring form.
	Bias float64
}

// NumTrain returns the number of training rows the model scores against.
func (a *Artifact) NumTrain() int {
	if a.TrainX == nil {
		return 0
	}
	return a.TrainX.Rows
}

// Dim returns the feature dimensionality inference inputs must have.
func (a *Artifact) Dim() int {
	if a.TrainX == nil {
		return 0
	}
	return a.TrainX.Cols
}

// Validate checks internal consistency — the same checks Load applies, so a
// hand-assembled artifact can be verified before Save.
func (a *Artifact) Validate() error {
	if a.TrainX == nil || a.TrainX.Rows == 0 {
		return fmt.Errorf("model: artifact has no training rows")
	}
	if a.TrainX.Cols == 0 {
		return fmt.Errorf("model: artifact has zero feature dimensionality")
	}
	if len(a.Coeff) != a.TrainX.Rows {
		return fmt.Errorf("model: %d dual coefficients for %d training rows", len(a.Coeff), a.TrainX.Rows)
	}
	if a.KernelSpec == nil {
		return fmt.Errorf("model: artifact has no kernel spec")
	}
	if _, err := a.KernelSpec.FromSpec(); err != nil {
		return fmt.Errorf("model: kernel spec: %w", err)
	}
	if d := a.KernelSpec.MaxDim(); d > a.TrainX.Cols {
		return fmt.Errorf("model: kernel spec addresses feature %d but rows have %d features", d-1, a.TrainX.Cols)
	}
	if a.Partition.N() != 0 && a.Partition.N() != a.TrainX.Cols {
		return fmt.Errorf("model: partition over %d features but rows have %d", a.Partition.N(), a.TrainX.Cols)
	}
	if a.FeatureNames != nil && len(a.FeatureNames) != a.TrainX.Cols {
		return fmt.Errorf("model: %d feature names for %d features", len(a.FeatureNames), a.TrainX.Cols)
	}
	return nil
}

// header is the JSON block of the file format. Field order is fixed by
// declaration order, so identical artifacts serialize to identical bytes.
type header struct {
	FormatVersion int          `json:"format_version"`
	LearnerKind   string       `json:"learner_kind"`
	Learner       string       `json:"learner,omitempty"`
	PartitionRGS  []int        `json:"partition_rgs,omitempty"`
	Kernel        *kernel.Spec `json:"kernel"`
	FeatureNames  []string     `json:"feature_names,omitempty"`
	NumTrain      int          `json:"n_train"`
	Dim           int          `json:"dim"`
	Bias          float64      `json:"bias"`
	PayloadCRC32  uint32       `json:"payload_crc32"`
}

// rgs extracts the partition's restricted growth string (0-based block index
// per element), the persistable form partition.FromRGS inverts.
func rgs(p partition.Partition) []int {
	n := p.N()
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for e := 1; e <= n; e++ {
		out[e-1] = p.BlockOf(e)
	}
	return out
}

// payloadBytes serializes the dense float payload (training rows then
// coefficients) as little-endian IEEE-754 bits.
func (a *Artifact) payloadBytes() []byte {
	buf := make([]byte, 8*(len(a.TrainX.Data)+len(a.Coeff)))
	off := 0
	for _, v := range a.TrainX.Data {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	for _, v := range a.Coeff {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	return buf
}

// Save writes the artifact to w in the .iotml format.
func (a *Artifact) Save(w io.Writer) error {
	if err := a.Validate(); err != nil {
		return err
	}
	payload := a.payloadBytes()
	hdr, err := a.header(crc32.ChecksumIEEE(payload))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return fmt.Errorf("model: %w", err)
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(hdr)))
	if _, err := bw.Write(lenBuf[:]); err != nil {
		return fmt.Errorf("model: %w", err)
	}
	if _, err := bw.Write(hdr); err != nil {
		return fmt.Errorf("model: %w", err)
	}
	if _, err := bw.Write(payload); err != nil {
		return fmt.Errorf("model: %w", err)
	}
	return bw.Flush()
}

// header encodes the artifact's JSON header for a payload with the given
// checksum — the one encoding Save writes and Load accepts.
func (a *Artifact) header(crc uint32) ([]byte, error) {
	hdr, err := json.Marshal(header{
		FormatVersion: FormatVersion,
		LearnerKind:   a.LearnerKind,
		Learner:       a.Learner,
		PartitionRGS:  rgs(a.Partition),
		Kernel:        a.KernelSpec,
		FeatureNames:  a.FeatureNames,
		NumTrain:      a.TrainX.Rows,
		Dim:           a.TrainX.Cols,
		Bias:          a.Bias,
		PayloadCRC32:  crc,
	})
	if err != nil {
		return nil, fmt.Errorf("model: encoding header: %w", err)
	}
	return hdr, nil
}

// SaveFile writes the artifact to path, creating or truncating it.
func (a *Artifact) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("model: %w", err)
	}
	if err := a.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("model: %w", err)
	}
	return nil
}

// maxHeaderBytes bounds the JSON header a Load will buffer, so a corrupt
// length field cannot demand an arbitrary allocation.
const maxHeaderBytes = 16 << 20

// maxPayloadBytes bounds the dense payload a Load will allocate (2 GiB —
// orders of magnitude above any artifact this system produces). Without it
// a corrupt or crafted header could demand an arbitrary allocation, or
// overflow the size arithmetic into a makeslice panic.
const maxPayloadBytes = 2 << 30

// readFull reads exactly n bytes from r into a buffer that grows with
// the bytes actually read, so a length field claiming more than the input
// holds costs no more memory than the input does.
func readFull(r io.Reader, n int64) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(r, n))
	if err == nil && int64(len(b)) < n {
		err = io.ErrUnexpectedEOF
	}
	return b, err
}

// Load reads an artifact from r, verifying magic, format version, payload
// checksum, and structural consistency. Only the bytes Save writes load:
// the header must be the exact encoding Save gives the loaded artifact,
// and nothing may follow the payload, so Save(Load(b)) reproduces b and
// two files fingerprint equal exactly when their bytes are equal. Memory
// grows with the bytes read, never with the sizes a header claims.
func Load(r io.Reader) (*Artifact, error) {
	br := bufio.NewReader(r)
	var magicBuf [len(magic)]byte
	if _, err := io.ReadFull(br, magicBuf[:]); err != nil {
		return nil, fmt.Errorf("model: reading magic: %w", err)
	}
	if string(magicBuf[:]) != magic {
		return nil, fmt.Errorf("model: not an iotml artifact (magic %q)", magicBuf)
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
		return nil, fmt.Errorf("model: reading header length: %w", err)
	}
	hlen := binary.LittleEndian.Uint32(lenBuf[:])
	if hlen == 0 || hlen > maxHeaderBytes {
		return nil, fmt.Errorf("model: implausible header length %d", hlen)
	}
	hdr, err := readFull(br, int64(hlen))
	if err != nil {
		return nil, fmt.Errorf("model: reading header: %w", err)
	}
	var h header
	dec := json.NewDecoder(bytes.NewReader(hdr))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("model: decoding header: %w", err)
	}
	if h.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("model: artifact is format version %d, this build reads version %d", h.FormatVersion, FormatVersion)
	}
	if h.NumTrain <= 0 || h.Dim <= 0 {
		return nil, fmt.Errorf("model: implausible shape %dx%d", h.NumTrain, h.Dim)
	}
	// Overflow-safe payload sizing: bound each dimension before forming the
	// product, then bound the product, so hostile headers are rejected with
	// an error instead of a makeslice panic or an OOM-sized allocation.
	const maxCells = maxPayloadBytes / 8
	if h.NumTrain > maxCells || h.Dim > maxCells {
		return nil, fmt.Errorf("model: implausible shape %dx%d", h.NumTrain, h.Dim)
	}
	cells := int64(h.NumTrain)*int64(h.Dim) + int64(h.NumTrain)
	if cells > maxCells {
		return nil, fmt.Errorf("model: payload of %dx%d training rows exceeds the %d-byte cap", h.NumTrain, h.Dim, int64(maxPayloadBytes))
	}
	payload, err := readFull(br, 8*cells)
	if err != nil {
		return nil, fmt.Errorf("model: reading payload (%d training rows × %d features): %w", h.NumTrain, h.Dim, err)
	}
	if got := crc32.ChecksumIEEE(payload); got != h.PayloadCRC32 {
		return nil, fmt.Errorf("model: payload checksum mismatch (file %08x, computed %08x)", h.PayloadCRC32, got)
	}
	a := &Artifact{
		LearnerKind:  h.LearnerKind,
		Learner:      h.Learner,
		KernelSpec:   h.Kernel,
		FeatureNames: h.FeatureNames,
		TrainX:       linalg.NewMatrix(h.NumTrain, h.Dim),
		Coeff:        make([]float64, h.NumTrain),
		Bias:         h.Bias,
	}
	if h.PartitionRGS != nil {
		if len(h.PartitionRGS) != h.Dim {
			return nil, fmt.Errorf("model: partition over %d features but dim is %d", len(h.PartitionRGS), h.Dim)
		}
		a.Partition = partition.FromRGS(h.PartitionRGS)
	}
	off := 0
	for i := range a.TrainX.Data {
		a.TrainX.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
		off += 8
	}
	for i := range a.Coeff {
		a.Coeff[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
		off += 8
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if canon, err := a.header(h.PayloadCRC32); err != nil || !bytes.Equal(canon, hdr) {
		return nil, fmt.Errorf("model: header is not the encoding Save writes for its contents")
	}
	if _, err := br.ReadByte(); err == nil {
		return nil, fmt.Errorf("model: data after the payload")
	} else if err != io.EOF {
		return nil, fmt.Errorf("model: reading past the payload: %w", err)
	}
	return a, nil
}

// Fingerprint returns a stable content hash of the artifact: the CRC-64
// (ECMA) of its serialized .iotml form, rendered as 16 hex digits. Because
// Save is deterministic and Load(Save(a)) reproduces every number
// bit-for-bit, a fingerprint survives a save/load round trip unchanged and
// two artifacts fingerprint equal exactly when their persisted bytes are
// equal — the property the serving layer's hot-swap detection relies on to
// tell a refreshed model from a rewritten-but-identical file.
func (a *Artifact) Fingerprint() (string, error) {
	h := crc64.New(fingerprintTable)
	if err := a.Save(h); err != nil {
		return "", fmt.Errorf("model: fingerprinting: %w", err)
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

var fingerprintTable = crc64.MakeTable(crc64.ECMA)

// LoadFile reads an artifact from path.
func LoadFile(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	defer f.Close()
	return Load(f)
}

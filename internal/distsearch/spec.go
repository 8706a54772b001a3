// Package distsearch distributes the partition-lattice search across
// worker processes: a coordinator shards the candidate batches the search
// strategies produce, dispatches shards to remote workers over HTTP+JSON,
// and merges the returned scores in canonical candidate order — so the
// distributed selection is bit-identical to the sequential strategies at
// every process and worker count (the same contract the in-process
// parallel strategies keep).
//
// Robustness is first-class: every shard dispatch carries a deadline and a
// jittered-exponential retry budget (internal/retry), a worker that dies,
// hangs past its deadline, or returns results under a mismatched
// dataset/config fingerprint is marked down and its shard re-dispatched to
// a live peer, and when the whole worker pool is exhausted the coordinator
// declines the remaining candidates (mkl.ErrDeclined) and the fit's own
// evaluator scores them on its in-process pool — a fit never fails
// because its fleet did.
//
// The coordinator is only a scorer: it holds no evaluator of its own, so
// every search strategy, the budgeted mode included, runs over a fleet
// unchanged. A worker keeps one evaluator per installed job in a FIFO job
// table (MaxJobs), and that table is its only cache.
//
// Determinism across processes rests on two invariants. First, the job —
// dataset plus evaluator configuration — ships bit-identically: the
// dataset as shortest-round-trip CSV (dataset.WriteCSV/ReadCSV reproduce
// every float bit-for-bit) and the configuration as a plain-value Spec
// that both sides expand into the same mkl.Config, all guarded by a
// CRC-64 fingerprint every response must echo. Second, scores merge by
// canonical candidate index, never by arrival order.
package distsearch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc64"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/kernelmachine"
	"repro/internal/mkl"
)

// Spec is the serializable evaluator configuration of a distributed
// search: plain strings and numbers (mkl.Config holds interfaces, which
// cannot cross the wire), expanded into an mkl.Config identically by the
// coordinator and every worker so scores are bit-identical regardless of
// where a candidate is computed. Field spellings match the iotml fit CLI.
type Spec struct {
	// Learner selects the kernel machine: "ridge" (default), "svm", or
	// "perceptron".
	Learner string `json:"learner,omitempty"`
	// RidgeLambda is the ridge regularization strength (0 = default 1e-2).
	RidgeLambda float64 `json:"ridge_lambda,omitempty"`
	// SVMC and SVMSeed configure the "svm" learner.
	SVMC    float64 `json:"svm_c,omitempty"`
	SVMSeed int64   `json:"svm_seed,omitempty"`
	// Kernel selects the block kernel family: "rbf" (default), "linear",
	// or "norm-rbf"; Gamma is the RBF base bandwidth (0 = 1.0).
	Kernel string  `json:"kernel,omitempty"`
	Gamma  float64 `json:"gamma,omitempty"`
	// Combiner aggregates block kernels: "sum" (default) or "product".
	Combiner string `json:"combiner,omitempty"`
	// Folds and CVSeed configure cross-validated scoring (0 folds =
	// default 4).
	Folds  int   `json:"folds,omitempty"`
	CVSeed int64 `json:"cv_seed,omitempty"`
	// Objective selects candidate scoring: "cv" (default) or "alignment".
	Objective string `json:"objective,omitempty"`
	// Backend selects the numeric backend in CLI spelling: "exact"
	// (default), "f32", "nystrom[:rank]", or "rff[:rank]". It must be a
	// concrete spelling — "auto" is resolved against the coordinator's
	// dataset before the spec is built, so every worker expands the same
	// backend; unknown spellings fail job install loudly on both sides.
	Backend string `json:"backend,omitempty"`
}

// Config expands the spec into the mkl.Config both sides of the wire
// score with. Orchestration-only knobs (Parallelism, Progress, caches)
// stay zero: they never affect scores, and each side sets its own.
func (s Spec) Config() (mkl.Config, error) {
	var cfg mkl.Config
	switch s.Learner {
	case "", "ridge":
		lambda := s.RidgeLambda
		if lambda <= 0 {
			lambda = 1e-2
		}
		cfg.Trainer = kernelmachine.Ridge{Lambda: lambda}
	case "svm":
		c := s.SVMC
		if c <= 0 {
			c = 1
		}
		cfg.Trainer = kernelmachine.SVM{C: c, Seed: s.SVMSeed}
	case "perceptron":
		cfg.Trainer = kernelmachine.Perceptron{}
	default:
		return cfg, fmt.Errorf("distsearch: unknown learner %q (ridge|svm|perceptron)", s.Learner)
	}
	gamma := s.Gamma
	if gamma <= 0 {
		gamma = 1.0
	}
	switch s.Kernel {
	case "", "rbf":
		cfg.Factory = kernel.RBFFactory(gamma)
	case "linear":
		cfg.Factory = kernel.LinearFactory()
	case "norm-rbf":
		cfg.Factory = kernel.NormalizedFactory(kernel.RBFFactory(gamma))
	default:
		return cfg, fmt.Errorf("distsearch: unknown kernel %q (rbf|linear|norm-rbf)", s.Kernel)
	}
	switch s.Combiner {
	case "", "sum":
		cfg.Combiner = kernel.CombineSum
	case "product":
		cfg.Combiner = kernel.CombineProduct
	default:
		return cfg, fmt.Errorf("distsearch: unknown combiner %q (sum|product)", s.Combiner)
	}
	switch s.Objective {
	case "", "cv":
		cfg.Objective = mkl.CVAccuracy
	case "alignment":
		cfg.Objective = mkl.KernelAlignment
	default:
		return cfg, fmt.Errorf("distsearch: unknown objective %q (cv|alignment)", s.Objective)
	}
	if s.Backend != "" {
		b, err := engine.Parse(s.Backend)
		if err != nil {
			return cfg, fmt.Errorf("distsearch: %w", err)
		}
		cfg.Backend = b
	}
	cfg.Folds = s.Folds
	cfg.Seed = s.CVSeed
	return cfg, nil
}

// Job is the unit a worker must hold before it can score shards: the
// training dataset (as bit-identical round-trip CSV plus its schema) and
// the evaluator Spec, sealed by a fingerprint. Workers recompute the
// fingerprint on install and echo it on every score response; the
// coordinator rejects any response whose echo mismatches, so a worker
// scoring a stale or corrupted job can never contaminate a fit.
type Job struct {
	Fingerprint string         `json:"fingerprint"`
	DatasetCSV  string         `json:"dataset_csv"`
	Schema      dataset.Schema `json:"schema"`
	Spec        Spec           `json:"spec"`
}

// crcTable is the ECMA CRC-64 table behind job fingerprints (the same
// polynomial internal/model uses for artifact fingerprints).
var crcTable = crc64.MakeTable(crc64.ECMA)

// NewJob packages a dataset and spec for the wire, stamping the
// fingerprint over the exact payload bytes a worker will ingest.
func NewJob(d *dataset.Dataset, spec Spec) (*Job, error) {
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, d); err != nil {
		return nil, fmt.Errorf("distsearch: packaging dataset: %w", err)
	}
	j := &Job{DatasetCSV: buf.String(), Schema: d.CSVSchema(), Spec: spec}
	fp, err := j.fingerprint()
	if err != nil {
		return nil, err
	}
	j.Fingerprint = fp
	return j, nil
}

// fingerprint hashes the job payload (dataset bytes, schema, spec) —
// everything that determines a candidate's score.
func (j *Job) fingerprint() (string, error) {
	h := crc64.New(crcTable)
	h.Write([]byte(j.DatasetCSV))
	enc := json.NewEncoder(h)
	if err := enc.Encode(j.Schema); err != nil {
		return "", fmt.Errorf("distsearch: fingerprinting schema: %w", err)
	}
	if err := enc.Encode(j.Spec); err != nil {
		return "", fmt.Errorf("distsearch: fingerprinting spec: %w", err)
	}
	return fmt.Sprintf("crc64:%016x", h.Sum64()), nil
}

// Verify recomputes the fingerprint over the payload and compares it to
// the stamped one — the worker-side integrity check at install time.
func (j *Job) Verify() error {
	fp, err := j.fingerprint()
	if err != nil {
		return err
	}
	if fp != j.Fingerprint {
		return fmt.Errorf("distsearch: job fingerprint mismatch: stamped %s, payload hashes to %s", j.Fingerprint, fp)
	}
	return nil
}

// Dataset re-ingests the job's training data exactly as the coordinator
// held it (WriteCSV/ReadCSV round-trip floats bit-for-bit).
func (j *Job) Dataset() (*dataset.Dataset, error) {
	d, err := dataset.ReadCSV(bytes.NewReader([]byte(j.DatasetCSV)), j.Schema)
	if err != nil {
		return nil, fmt.Errorf("distsearch: ingesting job dataset: %w", err)
	}
	return d, nil
}

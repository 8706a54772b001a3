// Package partition implements set partitions of {1, ..., n} and the
// partition lattice Π_n ordered by refinement — the search space of the
// paper's Section III, where every partition of the feature set induces a
// multiple-kernel configuration (one kernel per block).
//
// A partition is stored canonically as a restricted growth string (RGS):
// element i (0-based internally) carries the index of its block, and blocks
// are numbered in order of first appearance. Rendering follows the paper's
// notation, blocks ordered by their minimum element and separated by "/",
// e.g. "1/23/4" for {{1}, {2,3}, {4}}.
package partition

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Partition is a set partition of {1..n} in canonical RGS form.
type Partition struct {
	rgs []int
}

// New returns the finest partition of {1..n} (all singletons).
func New(n int) Partition {
	if n <= 0 {
		panic(fmt.Sprintf("partition: n = %d must be positive", n))
	}
	rgs := make([]int, n)
	for i := range rgs {
		rgs[i] = i
	}
	return Partition{rgs: rgs}
}

// Finest returns the all-singletons partition of {1..n} (rank 0).
func Finest(n int) Partition { return New(n) }

// Coarsest returns the one-block partition of {1..n} (rank n-1).
func Coarsest(n int) Partition {
	if n <= 0 {
		panic(fmt.Sprintf("partition: n = %d must be positive", n))
	}
	return Partition{rgs: make([]int, n)}
}

// FromRGS builds a partition from a block-index assignment (0-based
// elements). The assignment need not be canonical; it is normalized.
func FromRGS(assign []int) Partition {
	if len(assign) == 0 {
		panic("partition: empty assignment")
	}
	return Partition{rgs: canonicalize(assign)}
}

// FromBlocks builds a partition of {1..n} from explicit 1-based blocks.
// Blocks must be disjoint, nonempty, and cover {1..n} exactly.
func FromBlocks(n int, blocks [][]int) (Partition, error) {
	if n <= 0 {
		return Partition{}, fmt.Errorf("partition: n = %d must be positive", n)
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	for b, blk := range blocks {
		if len(blk) == 0 {
			return Partition{}, fmt.Errorf("partition: block %d is empty", b)
		}
		for _, e := range blk {
			if e < 1 || e > n {
				return Partition{}, fmt.Errorf("partition: element %d out of range [1,%d]", e, n)
			}
			if assign[e-1] != -1 {
				return Partition{}, fmt.Errorf("partition: element %d appears in two blocks", e)
			}
			assign[e-1] = b
		}
	}
	for i, a := range assign {
		if a == -1 {
			return Partition{}, fmt.Errorf("partition: element %d not covered", i+1)
		}
	}
	return FromRGS(assign), nil
}

// MustFromBlocks is FromBlocks that panics on error, for tests and tables.
func MustFromBlocks(n int, blocks [][]int) Partition {
	p, err := FromBlocks(n, blocks)
	if err != nil {
		panic(err)
	}
	return p
}

// MaxParseElement bounds the element values Parse accepts: a ground set is
// sized by its largest element, so an unbounded value would let a short
// hostile string (e.g. "999999999") demand a gigabyte allocation.
const MaxParseElement = 1 << 16

// Parse reads the paper's compact notation: blocks separated by "/",
// elements either run together as single digits ("1/23/4") or separated by
// commas ("1/2,3/4" — required when any element exceeds 9). Elements must
// lie in [1, MaxParseElement].
func Parse(s string) (Partition, error) {
	var blocks [][]int
	maxE := 0
	for _, part := range strings.Split(s, "/") {
		part = strings.TrimSpace(part)
		if part == "" {
			return Partition{}, fmt.Errorf("partition: empty block in %q", s)
		}
		var blk []int
		if strings.Contains(part, ",") {
			for _, tok := range strings.Split(part, ",") {
				e, err := strconv.Atoi(strings.TrimSpace(tok))
				if err != nil {
					return Partition{}, fmt.Errorf("partition: bad element %q in %q", tok, s)
				}
				if e < 1 || e > MaxParseElement {
					return Partition{}, fmt.Errorf("partition: element %d outside [1,%d] in %q", e, MaxParseElement, s)
				}
				blk = append(blk, e)
			}
		} else {
			for _, r := range part {
				if r < '1' || r > '9' {
					return Partition{}, fmt.Errorf("partition: bad digit %q in %q", r, s)
				}
				blk = append(blk, int(r-'0'))
			}
		}
		for _, e := range blk {
			if e > maxE {
				maxE = e
			}
		}
		blocks = append(blocks, blk)
	}
	return FromBlocks(maxE, blocks)
}

// canonicalize renumbers block labels in order of first appearance.
func canonicalize(assign []int) []int {
	relabel := make(map[int]int, len(assign))
	out := make([]int, len(assign))
	next := 0
	for i, a := range assign {
		idx, ok := relabel[a]
		if !ok {
			idx = next
			relabel[a] = idx
			next++
		}
		out[i] = idx
	}
	return out
}

// N returns the ground-set size.
func (p Partition) N() int { return len(p.rgs) }

// NumBlocks returns the number of blocks.
func (p Partition) NumBlocks() int {
	maxB := -1
	for _, b := range p.rgs {
		if b > maxB {
			maxB = b
		}
	}
	return maxB + 1
}

// Rank returns n - #blocks, the rank of p in Π_n (0 = finest).
func (p Partition) Rank() int { return p.N() - p.NumBlocks() }

// BlockOf returns the canonical block index of element e (1-based).
func (p Partition) BlockOf(e int) int {
	if e < 1 || e > p.N() {
		panic(fmt.Sprintf("partition: element %d out of range [1,%d]", e, p.N()))
	}
	return p.rgs[e-1]
}

// SameBlock reports whether elements a and b (1-based) share a block.
func (p Partition) SameBlock(a, b int) bool { return p.BlockOf(a) == p.BlockOf(b) }

// Blocks returns the blocks as sorted 1-based element lists, ordered by
// their minimum element (which coincides with canonical block order).
func (p Partition) Blocks() [][]int {
	out := make([][]int, p.NumBlocks())
	for i, b := range p.rgs {
		out[b] = append(out[b], i+1)
	}
	return out
}

// Equal reports whether p and q are the same partition.
func (p Partition) Equal(q Partition) bool {
	if len(p.rgs) != len(q.rgs) {
		return false
	}
	for i := range p.rgs {
		if p.rgs[i] != q.rgs[i] {
			return false
		}
	}
	return true
}

// Key returns a compact string usable as a map key.
func (p Partition) Key() string {
	var sb strings.Builder
	for i, b := range p.rgs {
		if i > 0 {
			sb.WriteByte('.')
		}
		sb.WriteString(strconv.Itoa(b))
	}
	return sb.String()
}

// String renders p in the paper's notation ("1/23/4"); elements above 9
// force comma separation within blocks ("1/2,10/3").
func (p Partition) String() string {
	blocks := p.Blocks()
	parts := make([]string, len(blocks))
	useCommas := p.N() > 9
	for i, blk := range blocks {
		if useCommas {
			es := make([]string, len(blk))
			for j, e := range blk {
				es[j] = strconv.Itoa(e)
			}
			parts[i] = strings.Join(es, ",")
		} else {
			var sb strings.Builder
			for _, e := range blk {
				sb.WriteByte(byte('0' + e))
			}
			parts[i] = sb.String()
		}
	}
	return strings.Join(parts, "/")
}

// Refines reports whether p ≤ q in refinement order: every block of p lies
// inside a block of q. It panics if ground sets differ.
func (p Partition) Refines(q Partition) bool {
	if p.N() != q.N() {
		panic(fmt.Sprintf("partition: Refines on mismatched ground sets %d vs %d", p.N(), q.N()))
	}
	// p refines q iff elements sharing a p-block share a q-block; check via
	// block representatives.
	repQ := make(map[int]int, p.NumBlocks()) // p-block -> q-block of its first element
	for i, pb := range p.rgs {
		qb := q.rgs[i]
		if prev, ok := repQ[pb]; ok {
			if prev != qb {
				return false
			}
		} else {
			repQ[pb] = qb
		}
	}
	return true
}

// Meet returns the coarsest common refinement p ∧ q (blockwise
// intersections).
func (p Partition) Meet(q Partition) Partition {
	if p.N() != q.N() {
		panic(fmt.Sprintf("partition: Meet on mismatched ground sets %d vs %d", p.N(), q.N()))
	}
	type pair struct{ a, b int }
	labels := make(map[pair]int)
	assign := make([]int, p.N())
	next := 0
	for i := range p.rgs {
		k := pair{p.rgs[i], q.rgs[i]}
		idx, ok := labels[k]
		if !ok {
			idx = next
			labels[k] = idx
			next++
		}
		assign[i] = idx
	}
	return Partition{rgs: assign} // already canonical: first-appearance order
}

// Join returns the finest common coarsening p ∨ q (transitive closure of
// "same block in p or q"), computed with union-find.
func (p Partition) Join(q Partition) Partition {
	if p.N() != q.N() {
		panic(fmt.Sprintf("partition: Join on mismatched ground sets %d vs %d", p.N(), q.N()))
	}
	n := p.N()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	link := func(rgs []int) {
		first := make(map[int]int)
		for i, b := range rgs {
			if f, ok := first[b]; ok {
				union(f, i)
			} else {
				first[b] = i
			}
		}
	}
	link(p.rgs)
	link(q.rgs)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = find(i)
	}
	return FromRGS(assign)
}

// MergeBlocks returns the partition obtained from p by merging blocks i and
// j (canonical indices); this is an upper cover of p when i != j.
func (p Partition) MergeBlocks(i, j int) Partition {
	nb := p.NumBlocks()
	if i < 0 || j < 0 || i >= nb || j >= nb {
		panic(fmt.Sprintf("partition: MergeBlocks(%d,%d) out of range with %d blocks", i, j, nb))
	}
	if i == j {
		return p
	}
	assign := make([]int, p.N())
	for e, b := range p.rgs {
		if b == j {
			b = i
		}
		assign[e] = b
	}
	return FromRGS(assign)
}

// UpperCovers returns all partitions covering p (every way of merging two of
// its blocks). Their number is b(b-1)/2 for b blocks.
func (p Partition) UpperCovers() []Partition {
	b := p.NumBlocks()
	out := make([]Partition, 0, b*(b-1)/2)
	for i := 0; i < b; i++ {
		for j := i + 1; j < b; j++ {
			out = append(out, p.MergeBlocks(i, j))
		}
	}
	return out
}

// LowerCovers returns all partitions covered by p (every way of splitting
// one block into two nonempty parts). A block of size s contributes
// 2^(s-1) - 1 splits.
func (p Partition) LowerCovers() []Partition {
	blocks := p.Blocks()
	var out []Partition
	for bi, blk := range blocks {
		s := len(blk)
		if s < 2 {
			continue
		}
		// Enumerate proper nonempty subsets containing blk[0] to avoid the
		// duplicate (A, B) vs (B, A); masks over the s-1 tail elements.
		for mask := 0; mask < 1<<uint(s-1); mask++ {
			if mask == 1<<uint(s-1)-1 {
				continue // would keep the whole block together
			}
			assign := append([]int(nil), p.rgs...)
			newBlock := p.NumBlocks()
			for t := 0; t < s-1; t++ {
				if mask&(1<<uint(t)) == 0 {
					// Tail element not grouped with blk[0]: move out.
					assign[blk[t+1]-1] = newBlock
				}
			}
			_ = bi
			out = append(out, FromRGS(assign))
		}
	}
	return out
}

// Covers reports whether q covers p: p < q and they differ by one merge.
func (p Partition) Covers(q Partition) bool {
	return q.Rank() == p.Rank()+1 && p.Refines(q)
}

// All returns every partition of {1..n} by enumerating restricted growth
// strings, in lexicographic RGS order (the finest partition is not first in
// this order; use Finest/Coarsest for the extremes). The count is Bell(n) —
// callers must keep n small (n <= 13 stays under ~28M; practical use here
// is n <= 10).
func All(n int) []Partition {
	if n <= 0 {
		panic(fmt.Sprintf("partition: n = %d must be positive", n))
	}
	var out []Partition
	rgs := make([]int, n)
	var rec func(i, maxUsed int)
	rec = func(i, maxUsed int) {
		if i == n {
			out = append(out, Partition{rgs: append([]int(nil), rgs...)})
			return
		}
		for b := 0; b <= maxUsed+1; b++ {
			rgs[i] = b
			nm := maxUsed
			if b > maxUsed {
				nm = b
			}
			rec(i+1, nm)
		}
	}
	rgs[0] = 0
	rec(1, 0)
	return out
}

// OfOrderedType returns, in lexicographic order, all partitions of {1..n}
// whose blocks ordered by minimum element have sizes exactly comp (a
// composition of n). This is the enumeration behind the paper's Table I:
// e.g. type (1,2,1) on {1..4} yields 1/23/4 and 1/24/3.
func OfOrderedType(comp []int) []Partition {
	n := 0
	for _, c := range comp {
		if c <= 0 {
			panic(fmt.Sprintf("partition: non-positive part %d in type %v", c, comp))
		}
		n += c
	}
	if n == 0 {
		panic("partition: empty type")
	}
	var out []Partition
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	var rec func(level int)
	rec = func(level int) {
		if level == len(comp) {
			out = append(out, FromRGS(assign))
			return
		}
		// The block's minimum is the smallest unassigned element.
		minE := -1
		var free []int
		for i, a := range assign {
			if a == -1 {
				if minE == -1 {
					minE = i
				} else {
					free = append(free, i)
				}
			}
		}
		need := comp[level] - 1
		assign[minE] = level
		// Choose `need` of the free elements, lexicographically.
		idx := make([]int, need)
		var choose func(start, d int)
		choose = func(start, d int) {
			if d == need {
				for _, f := range idx {
					assign[free[f]] = level
				}
				rec(level + 1)
				for _, f := range idx {
					assign[free[f]] = -1
				}
				return
			}
			for s := start; s <= len(free)-(need-d); s++ {
				idx[d] = s
				choose(s+1, d+1)
			}
		}
		choose(0, 0)
		assign[minE] = -1
	}
	rec(0)
	return out
}

// HasseEdges returns the cover relations of Π_n as index pairs (i, j) into
// the provided partition list, with list[i] covered by list[j]. The list is
// typically All(n).
func HasseEdges(list []Partition) [][2]int {
	byKey := make(map[string]int, len(list))
	for i, p := range list {
		byKey[p.Key()] = i
	}
	var edges [][2]int
	for i, p := range list {
		for _, q := range p.UpperCovers() {
			j, ok := byKey[q.Key()]
			if !ok {
				continue
			}
			edges = append(edges, [2]int{i, j})
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a][0] != edges[b][0] {
			return edges[a][0] < edges[b][0]
		}
		return edges[a][1] < edges[b][1]
	})
	// UpperCovers of distinct partitions can coincide as partitions but the
	// (i, j) pairs are distinct by construction; dedupe defensively anyway.
	out := edges[:0]
	for k, e := range edges {
		if k > 0 && e == edges[k-1] {
			continue
		}
		out = append(out, e)
	}
	return out
}

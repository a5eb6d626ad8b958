package analysis

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Mergeable streaming summaries for fleet-scale campaigns.
//
// A fleet of 10^5–10^6 chips cannot keep per-chip observations in
// memory, and shards of the fleet are characterized on different
// workers and merged later. Both constraints are met by a pair of
// fixed-size, order-insensitive folds:
//
//   - Sketch: a log-binned quantile sketch (DDSketch-family). Values
//     are mapped to geometrically spaced bins so that any quantile is
//     answered with bounded *relative* error, and merging two
//     sketches is plain counter addition — commutative and
//     associative, so shard merge order can never change the result.
//     (A centroid t-digest compresses adaptively and is therefore
//     merge-order dependent; that would break the byte-identical
//     sharded-vs-unsharded contract, so we use fixed bins.)
//   - Moments: streaming count/mean/M2 (Welford), merged with Chan's
//     parallel update.
//
// Both serialize deterministically: same multiset of observations —
// in any insertion or merge order — yields the same bytes.

// SketchAlpha is the default relative-error budget: quantiles are
// accurate to within ±1% of the true value (see Sketch.Quantile).
const SketchAlpha = 0.01

// sketchValueFloor and sketchValueCeil bound the representable
// positive range. Values below the floor are counted in a dedicated
// "tiny" bin (reported as 0); values above the ceiling clamp to the
// ceiling's bin. For ACmin counts (10^3..10^6) and times (µs..hours)
// the range is generous by many orders of magnitude.
const (
	sketchValueFloor = 1e-12
	sketchValueCeil  = 1e15
)

// Sketch is a mergeable quantile sketch over non-negative values.
//
// Error contract: for any quantile q, the returned value v̂ satisfies
// |v̂ - v| <= alpha * v for the true quantile v, provided v lies in
// [sketchValueFloor, sketchValueCeil]. Values outside that range are
// clamped (below the floor they are reported as 0). Merging never
// degrades the bound. The zero value is not usable; use NewSketch.
type Sketch struct {
	alpha    float64
	gamma    float64 // (1+alpha)/(1-alpha)
	logGamma float64
	counts   map[int32]uint64 // bin index -> count of values in bin
	zeros    uint64           // values < sketchValueFloor (incl. 0)
	total    uint64
	min, max float64 // exact extrema of in-range values
}

// NewSketch returns an empty sketch with the given relative-error
// budget alpha in (0, 1). Use SketchAlpha unless a campaign has a
// reason to trade accuracy for fewer bins.
func NewSketch(alpha float64) *Sketch {
	if !(alpha > 0 && alpha < 1) {
		panic(fmt.Sprintf("analysis: sketch alpha %v out of (0,1)", alpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		alpha:    alpha,
		gamma:    gamma,
		logGamma: math.Log(gamma),
		counts:   make(map[int32]uint64),
		min:      math.Inf(1),
		max:      math.Inf(-1),
	}
}

// binIndex maps a value in [sketchValueFloor, sketchValueCeil] to its
// geometric bin: the unique i with gamma^(i-1) < v <= gamma^i.
func (s *Sketch) binIndex(v float64) int32 {
	return int32(math.Ceil(math.Log(v) / s.logGamma))
}

// binValue is the representative value reported for bin i: the
// geometric midpoint 2*gamma^i/(gamma+1), which keeps the relative
// error of any value in the bin within alpha.
func (s *Sketch) binValue(i int32) float64 {
	return 2 * math.Pow(s.gamma, float64(i)) / (s.gamma + 1)
}

// Add folds one observation into the sketch. Negative and NaN values
// are rejected (the fleet pipeline only folds counts and durations);
// +Inf clamps to the ceiling bin.
func (s *Sketch) Add(v float64) {
	s.AddN(v, 1)
}

// AddN folds n identical observations in O(1).
func (s *Sketch) AddN(v float64, n uint64) {
	if n == 0 {
		return
	}
	if math.IsNaN(v) || v < 0 {
		panic(fmt.Sprintf("analysis: sketch cannot hold %v", v))
	}
	s.total += n
	if v < sketchValueFloor {
		s.zeros += n
		return
	}
	if v > sketchValueCeil {
		v = sketchValueCeil
	}
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.counts[s.binIndex(v)] += n
}

// Merge folds other into s. Merging is commutative and associative:
// any grouping and order of shard merges yields an identical sketch
// (and identical serialized bytes). other is left unchanged; merging
// sketches with different alpha is an error.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil || other.total == 0 {
		return nil
	}
	if other.alpha != s.alpha {
		return fmt.Errorf("analysis: merging sketches with alpha %v and %v", s.alpha, other.alpha)
	}
	for i, n := range other.counts {
		s.counts[i] += n
	}
	s.zeros += other.zeros
	s.total += other.total
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	return nil
}

// Quantile returns the value at quantile q in [0, 1] (0 = min,
// 1 = max) with relative error at most alpha. It returns 0 for an
// empty sketch. The exact min and max are tracked separately, so
// q=0 and q=1 are exact.
func (s *Sketch) Quantile(q float64) float64 {
	if s.total == 0 {
		return 0
	}
	if math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		if s.zeros > 0 {
			return 0
		}
		return s.min
	}
	if q >= 1 {
		if s.total == s.zeros {
			return 0
		}
		return s.max
	}
	// rank in [1, total]: the k-th smallest observation.
	rank := uint64(math.Ceil(q * float64(s.total)))
	if rank < 1 {
		rank = 1
	}
	if rank <= s.zeros {
		return 0
	}
	rank -= s.zeros
	// Walk bins in ascending index order.
	idx := s.sortedBins()
	var seen uint64
	for _, i := range idx {
		seen += s.counts[i]
		if seen >= rank {
			v := s.binValue(i)
			// Clamp to exact extrema so q near 0/1 cannot
			// step outside the observed range.
			if v < s.min {
				v = s.min
			}
			if v > s.max {
				v = s.max
			}
			return v
		}
	}
	return s.max
}

func (s *Sketch) sortedBins() []int32 {
	idx := make([]int32, 0, len(s.counts))
	for i := range s.counts {
		idx = append(idx, i)
	}
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	return idx
}

// sketchMagic guards serialized sketches; the trailing byte is a
// format version.
var sketchMagic = [4]byte{'q', 's', 'k', 1}

// ErrBadSketch is returned when deserializing corrupt or
// incompatible sketch bytes.
var ErrBadSketch = errors.New("analysis: malformed sketch encoding")

// AppendBinary serializes the sketch deterministically: the same
// multiset of observations yields the same bytes regardless of
// insertion or merge order. Layout (all little-endian):
//
//	magic[4] | alpha f64 | zeros u64 | total u64 | min f64 | max f64 |
//	nbins u32 | nbins × (index i32, count u64) in ascending index order
func (s *Sketch) AppendBinary(dst []byte) []byte {
	dst = append(dst, sketchMagic[:]...)
	dst = le64(dst, math.Float64bits(s.alpha))
	dst = le64(dst, s.zeros)
	dst = le64(dst, s.total)
	dst = le64(dst, math.Float64bits(s.min))
	dst = le64(dst, math.Float64bits(s.max))
	idx := s.sortedBins()
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(idx)))
	for _, i := range idx {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(i))
		dst = le64(dst, s.counts[i])
	}
	return dst
}

func le64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// SketchFromBinary deserializes a sketch produced by AppendBinary,
// returning the decoded sketch and the number of bytes consumed.
func SketchFromBinary(b []byte) (*Sketch, int, error) {
	const header = 4 + 5*8 + 4
	if len(b) < header {
		return nil, 0, ErrBadSketch
	}
	if [4]byte(b[:4]) != sketchMagic {
		return nil, 0, ErrBadSketch
	}
	alpha := math.Float64frombits(binary.LittleEndian.Uint64(b[4:]))
	if !(alpha > 0 && alpha < 1) {
		return nil, 0, ErrBadSketch
	}
	s := NewSketch(alpha)
	s.zeros = binary.LittleEndian.Uint64(b[12:])
	s.total = binary.LittleEndian.Uint64(b[20:])
	s.min = math.Float64frombits(binary.LittleEndian.Uint64(b[28:]))
	s.max = math.Float64frombits(binary.LittleEndian.Uint64(b[36:]))
	nbins := int(binary.LittleEndian.Uint32(b[44:]))
	n := header
	if len(b)-n < nbins*12 {
		return nil, 0, ErrBadSketch
	}
	var sum uint64
	prev := int32(math.MinInt32)
	for k := 0; k < nbins; k++ {
		i := int32(binary.LittleEndian.Uint32(b[n:]))
		c := binary.LittleEndian.Uint64(b[n+4:])
		n += 12
		if i <= prev && k > 0 {
			return nil, 0, ErrBadSketch // not strictly ascending
		}
		prev = i
		if c == 0 {
			return nil, 0, ErrBadSketch
		}
		s.counts[i] = c
		sum += c
	}
	if sum+s.zeros != s.total {
		return nil, 0, ErrBadSketch
	}
	return s, n, nil
}

// Moments is a streaming count/mean/M2 fold (Welford). Merging uses
// Chan's parallel update; like the sketch it is insensitive to the
// grouping of merges up to float rounding, and the fleet pipeline
// always merges shards in canonical order so serialized state is
// byte-stable.
type Moments struct {
	N    uint64  `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
}

// Add folds one observation.
func (m *Moments) Add(v float64) {
	m.N++
	d := v - m.Mean
	m.Mean += d / float64(m.N)
	m.M2 += d * (v - m.Mean)
}

// Merge folds other into m.
func (m *Moments) Merge(other Moments) {
	if other.N == 0 {
		return
	}
	if m.N == 0 {
		*m = other
		return
	}
	n1, n2 := float64(m.N), float64(other.N)
	d := other.Mean - m.Mean
	tot := n1 + n2
	m.Mean += d * n2 / tot
	m.M2 += other.M2 + d*d*n1*n2/tot
	m.N += other.N
}

// Std reports the population standard deviation (0 for N < 2).
func (m *Moments) Std() float64 {
	if m.N < 2 {
		return 0
	}
	return math.Sqrt(m.M2 / float64(m.N))
}

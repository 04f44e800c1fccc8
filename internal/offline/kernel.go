package offline

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/bitset"
	"repro/internal/setcover"
)

// GreedyKernel is the repository's one greedy loop (DESIGN.md §3): it
// repeatedly picks the set of maximum cost-effectiveness (RatioCmp; ties to
// the smallest ID) until the universe is covered, no set has positive
// residual gain, or onPick returns false. It returns how many elements stay
// uncovered.
//
// sets[i] is set i (Set.ID is not consulted); weights nil means unit
// weights. Gains count distinct uncovered elements, so sets need not be
// normalized. The run resumes from covered and updates it in place. onPick
// sees each pick in order with its gain and the elements it newly covered
// (scratch: copy newly to keep it).
//
// Gains stay exact through decrements along a CSR element→sets index.
// Candidates sit in buckets by bits.Len(gain), or by the binary exponent of
// gain/weight when weighted; a lower bucket holds only strictly smaller
// ratios, so each round scans the top bucket alone. Working memory comes
// from a sync.Pool, so concurrent runs are safe.
func GreedyKernel(n int, sets []setcover.Set, weights []float64, covered *bitset.Bitset, onPick func(id, gain int, newly []setcover.Elem) bool) int {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	// Pass 1: gains, the top level, and per-element incidence counts
	// (offs[e+1]); stamp skips an element repeated within one set.
	lv := newLevels(weights)
	gains := resize(&sc.gains, len(sets))
	offs := resize(&sc.offs, n+1)
	stamp := resize(&sc.stamp, n)
	total, top := 0, 0
	for id, s := range sets {
		g, mark := int32(0), int32(id+1)
		for _, e := range s.Elems {
			if stamp[e] != mark && !covered.Test(int(e)) {
				stamp[e] = mark
				offs[e+1]++
				g++
			}
		}
		gains[id] = g
		total += int(g)
		top = max(top, lv.level(int32(id), g))
	}
	for e := 1; e <= n; e++ {
		offs[e] += offs[e-1]
	}
	if c := cap(sc.buckets); c <= top {
		sc.buckets = append(sc.buckets[:c], make([][]int32, top+1-c)...)
	}
	buckets := sc.buckets[:top+1]
	for l := range buckets {
		buckets[l] = buckets[l][:0]
	}
	// Pass 2: bucket the candidates and fill the index, using offs[e] as e's
	// cursor; it ends at the start of e+1, so one shift restores the offsets.
	flat := resize(&sc.flat, total)
	for id, s := range sets {
		if gains[id] == 0 {
			continue
		}
		l, mark := lv.level(int32(id), gains[id]), -int32(id+1)
		buckets[l] = append(buckets[l], int32(id))
		for _, e := range s.Elems {
			if stamp[e] != mark && !covered.Test(int(e)) {
				stamp[e] = mark
				flat[offs[e]] = int32(id)
				offs[e]++
			}
		}
	}
	copy(offs[1:], offs[:n])
	offs[0] = 0

	remaining := n - covered.Count()
	newly := sc.newly[:0]
	for remaining > 0 {
		for top > 0 && len(buckets[top]) == 0 {
			top--
		}
		if top == 0 {
			break // no positive gain anywhere: the residual is infeasible
		}
		// Drop dead entries (gain 0), sink decayed ones, take the argmax.
		live := buckets[top][:0]
		best, bestGain := int32(-1), int32(0)
		for _, id := range buckets[top] {
			g := gains[id]
			if l := lv.level(id, g); l < top {
				if l > 0 {
					buckets[l] = append(buckets[l], id)
				}
				continue
			}
			live = append(live, id)
			if best < 0 || lv.beats(id, g, best, bestGain) {
				best, bestGain = id, g
			}
		}
		buckets[top] = live
		if best < 0 {
			continue
		}
		newly = newly[:0]
		for _, e := range sets[best].Elems {
			if !covered.Test(int(e)) {
				covered.Set(int(e))
				newly = append(newly, e)
			}
		}
		gains[best] = 0
		remaining -= len(newly)
		for _, e := range newly {
			for _, id := range flat[offs[e]:offs[e+1]] {
				if gains[id] > 0 {
					gains[id]--
				}
			}
		}
		if !onPick(int(best), int(bestGain), newly) {
			break
		}
	}
	sc.newly = newly
	return remaining
}

// scratch is GreedyKernel's reusable working memory.
type scratch struct {
	gains, offs, flat, stamp []int32
	newly                    []setcover.Elem
	buckets                  [][]int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// resize sets *buf to n zeroed entries, reusing its capacity.
func resize(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	} else {
		*buf = (*buf)[:n]
		clear(*buf)
	}
	return *buf
}

// levels buckets candidates and applies the pick rule.
type levels struct {
	w    []float64 // nil: unit weights
	base int       // shifts ratio exponents so that every positive gain is level >= 1
}

func newLevels(weights []float64) levels {
	if len(weights) == 0 {
		return levels{}
	}
	// fl(g/w) >= fl(1/max(w)) for every positive gain.
	return levels{w: weights, base: exponent(1/slices.Max(weights)) - 1}
}

// exponent is the biased exponent field of a positive float64, monotone in
// the value (subnormals and +Inf included).
func exponent(r float64) int { return int(math.Float64bits(r) >> 52) }

// level is the bucket of set id at residual gain g; 0 means g == 0.
func (lv *levels) level(id, g int32) int {
	switch {
	case g == 0:
		return 0
	case lv.w == nil:
		return bits.Len32(uint32(g))
	}
	return exponent(float64(g)/lv.w[id]) - lv.base
}

// beats reports whether candidate a (gain ga) wins over incumbent b.
func (lv *levels) beats(a, ga, b, gb int32) bool {
	if lv.w == nil {
		return ga > gb || (ga == gb && a < b)
	}
	c := RatioCmp(int(ga), lv.w[a], int(gb), lv.w[b])
	return c > 0 || (c == 0 && a < b)
}

// RatioCmp compares the cost-effectiveness ga/wa with gb/wb and returns -1,
// 0 or +1: the one pick rule of the kernel and of greedyn's streaming
// argmax. It cross-multiplies and breaks a tie of the rounded products by
// their FMA residuals, so distinct ratios never compare equal (rounded
// products alone tie 3/1 with 1/fl(1/3)). It is exact for gains below 2^31
// and weights in [2^-960, 2^960].
func RatioCmp(ga int, wa float64, gb int, wb float64) int {
	x, y := float64(ga)*wb, float64(gb)*wa
	if x == y {
		x, y = math.FMA(float64(ga), wb, -x), math.FMA(float64(gb), wa, -y)
	}
	return cmp.Compare(x, y)
}

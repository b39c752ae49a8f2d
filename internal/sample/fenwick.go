package sample

import (
	"fmt"
	"math/rand"
)

// Fenwick is a binary-indexed-tree weighted sampler supporting
// without-replacement draws: Take samples an index with probability
// proportional to its current weight and removes it, both in O(log n).
// The zero value is empty; Reset (re)fills it, reusing the backing
// arrays, so a pooled Fenwick serves many sampling rounds without
// re-allocating its tree.
type Fenwick struct {
	tree    []float64 // 1-based partial sums
	weights []float64 // current per-index weights (0 once removed)
	total   float64
	// hibit is the highest power of two <= n, the starting stride of the
	// tree descent.
	hibit int
}

// NewFenwick builds a sampler over the given non-negative weights.
func NewFenwick(weights []float64) (*Fenwick, error) {
	f := &Fenwick{}
	if err := f.Reset(weights); err != nil {
		return nil, err
	}
	return f, nil
}

// Reset refills the sampler from weights, reusing the existing backing
// arrays when they are large enough.
func (f *Fenwick) Reset(weights []float64) error {
	return f.ResetFunc(len(weights), func(i int) float64 { return weights[i] })
}

// ResetFunc refills the sampler with n weights produced by w, reusing
// the existing backing arrays when they are large enough. It avoids
// materializing a caller-side weight slice for weights that are cheap
// to compute per index (the hot-rack boost pattern of the generator).
func (f *Fenwick) ResetFunc(n int, w func(i int) float64) error {
	if n == 0 {
		return fmt.Errorf("sample: fenwick sampler needs at least one weight")
	}
	if cap(f.tree) < n+1 {
		f.tree = make([]float64, n+1)
		f.weights = make([]float64, n)
	}
	f.tree = f.tree[:n+1]
	f.weights = f.weights[:n]
	f.total = 0
	for i := 0; i < n; i++ {
		wi := w(i)
		if wi < 0 || wi != wi {
			return fmt.Errorf("sample: fenwick weight %d is invalid (%v)", i, wi)
		}
		f.weights[i] = wi
		f.tree[i+1] = wi
		f.total += wi
	}
	if f.total <= 0 {
		return fmt.Errorf("sample: fenwick weights sum to zero")
	}
	// Classic O(n) tree build: push each node's sum into its parent.
	for i := 1; i <= n; i++ {
		parent := i + (i & -i)
		if parent <= n {
			f.tree[parent] += f.tree[i]
		}
	}
	f.hibit = 1
	for f.hibit<<1 <= n {
		f.hibit <<= 1
	}
	return nil
}

// N returns the number of indices (including removed ones).
func (f *Fenwick) N() int { return len(f.weights) }

// Total returns the sum of the remaining weights.
func (f *Fenwick) Total() float64 { return f.total }

// Draw samples one index with probability proportional to its current
// weight, consuming exactly one uniform variate. It does not remove the
// index; Remove does, and Take combines both.
func (f *Fenwick) Draw(rng *rand.Rand) int {
	return f.pickAt(rng.Float64() * f.total)
}

// pickAt returns the first index whose cumulative remaining weight
// reaches u — the same pick rule as a linear CDF scan, found by
// descending the implicit tree in O(log n).
func (f *Fenwick) pickAt(u float64) int {
	// After the loop idx is the largest position whose prefix sum is
	// strictly below u.
	idx := 0
	n := len(f.weights)
	for bit := f.hibit; bit > 0; bit >>= 1 {
		next := idx + bit
		if next <= n && f.tree[next] < u {
			u -= f.tree[next]
			idx = next
		}
	}
	// idx is now 0-based. Guard the numeric edges: u beyond the last
	// positive weight (accumulated rounding) or a landed-on zero weight.
	if idx >= n {
		idx = n - 1
	}
	if f.weights[idx] == 0 {
		return f.nearestPositive(idx)
	}
	return idx
}

// Take draws one index and removes it: a without-replacement pick.
func (f *Fenwick) Take(rng *rand.Rand) int {
	i := f.Draw(rng)
	f.Remove(i)
	return i
}

// Remove zeroes index i's weight so later draws cannot return it.
func (f *Fenwick) Remove(i int) {
	w := f.weights[i]
	if w == 0 {
		return
	}
	f.weights[i] = 0
	f.total -= w
	for j := i + 1; j <= len(f.weights); j += j & -j {
		f.tree[j] -= w
	}
}

// nearestPositive walks outward from idx to the closest index that still
// has positive weight (preferring lower indices, matching the linear
// scan's "last positive weight" fallback direction).
func (f *Fenwick) nearestPositive(idx int) int {
	for i := idx; i >= 0; i-- {
		if f.weights[i] > 0 {
			return i
		}
	}
	for i := idx + 1; i < len(f.weights); i++ {
		if f.weights[i] > 0 {
			return i
		}
	}
	return idx
}

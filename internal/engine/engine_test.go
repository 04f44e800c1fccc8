package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/setcover"
	"repro/internal/stream"
)

func testInstance(n, m int) *setcover.Instance {
	in := &setcover.Instance{N: n}
	for i := 0; i < m; i++ {
		in.Sets = append(in.Sets, setcover.Set{Elems: []setcover.Elem{
			int32(i % n), int32((i * 7) % n),
		}})
	}
	in.Normalize()
	return in
}

// funcRepoOf streams in through a FuncRepo, the in-memory repository whose
// passes segment: tests of the chunk-parallel decoder wrap it.
func funcRepoOf(in *setcover.Instance) *stream.FuncRepo {
	return stream.NewFuncRepo(in.N, len(in.Sets), func(id int) setcover.Set { return in.Sets[id] })
}

// recorder checks the per-observer contract: batches arrive in stream order,
// cover the whole stream, respect the batch size, and are bracketed by the
// lifecycle hooks.
type recorder struct {
	mu     sync.Mutex // only guards cross-test inspection, not Observe itself
	ids    []int
	begins int
	ends   int
	maxLen int
}

func (r *recorder) BeginPass() { r.begins++ }
func (r *recorder) EndPass()   { r.ends++ }
func (r *recorder) Observe(batch []setcover.Set) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(batch) > r.maxLen {
		r.maxLen = len(batch)
	}
	for _, s := range batch {
		r.ids = append(r.ids, s.ID)
	}
}

func (r *recorder) verify(t *testing.T, m int, batchSize int) {
	t.Helper()
	if len(r.ids) != m {
		t.Fatalf("observer saw %d of %d sets", len(r.ids), m)
	}
	for i, id := range r.ids {
		if id != i {
			t.Fatalf("set %d arrived at position %d — stream order violated", id, i)
		}
	}
	if r.maxLen > batchSize {
		t.Fatalf("batch of %d exceeds configured size %d", r.maxLen, batchSize)
	}
	if r.begins != 1 || r.ends != 1 {
		t.Fatalf("lifecycle hooks: begins=%d ends=%d, want 1/1", r.begins, r.ends)
	}
}

func TestRunDeliversStreamToEveryObserver(t *testing.T) {
	const m = 1000
	repo := stream.NewSliceRepo(testInstance(64, m))
	for _, workers := range []int{1, 2, 4, 16} {
		for _, batchSize := range []int{1, 3, 256} {
			name := fmt.Sprintf("workers=%d/batch=%d", workers, batchSize)
			e := New(Options{Workers: workers, BatchSize: batchSize})
			obs := make([]*recorder, 5)
			asObs := make([]Observer, len(obs))
			for i := range obs {
				obs[i] = &recorder{}
				asObs[i] = obs[i]
			}
			before := repo.Passes()
			e.Run(repo, asObs...)
			if repo.Passes() != before+1 {
				t.Fatalf("%s: Run cost %d passes, want 1", name, repo.Passes()-before)
			}
			for i, r := range obs {
				if t.Failed() {
					break
				}
				_ = i
				r.verify(t, m, batchSize)
			}
		}
	}
}

func TestRunWithZeroObserversStillDrains(t *testing.T) {
	// The streaming model does not allow a partial scan to be cheaper: a
	// begun pass reads all of F even when no observer is registered. The
	// counter is atomic because a FuncRepo generator may run on several
	// decode goroutines (segmented passes).
	var reads atomic.Int64
	repo := stream.NewFuncRepo(8, 123, func(id int) setcover.Set {
		reads.Add(1)
		return setcover.Set{Elems: []setcover.Elem{int32(id % 8)}}
	})
	if err := New(Options{}).Run(repo); err != nil {
		t.Fatal(err)
	}
	if repo.Passes() != 1 {
		t.Fatalf("Passes = %d, want 1", repo.Passes())
	}
	if reads.Load() != 123 {
		t.Fatalf("drained %d of 123 sets", reads.Load())
	}
}

func TestFuncRepoAsEngineSource(t *testing.T) {
	const n, m = 32, 500
	repo := stream.NewFuncRepo(n, m, func(id int) setcover.Set {
		return setcover.Set{Elems: []setcover.Elem{int32(id % n), int32((id * 3) % n)}}
	})
	e := New(Options{Workers: 4, BatchSize: 7})
	obs := []*recorder{{}, {}, {}}
	e.Run(repo, obs[0], obs[1], obs[2])
	for _, r := range obs {
		r.verify(t, m, 7)
	}
}

func TestFuncAdapter(t *testing.T) {
	repo := stream.NewSliceRepo(testInstance(16, 40))
	count := 0
	New(Options{Workers: 1}).Run(repo, Func(func(batch []setcover.Set) {
		count += len(batch)
	}))
	if count != 40 {
		t.Fatalf("Func observer saw %d of 40 sets", count)
	}
}

func TestObserverShardingIsDisjoint(t *testing.T) {
	// Two observers accumulating into disjoint state must produce identical
	// results at every worker count — the determinism contract internal/core
	// relies on. Each observer sums (id+1)*weight over the stream.
	const m = 2048
	repo := stream.NewSliceRepo(testInstance(100, m))
	sums := func(workers int) []int64 {
		out := make([]int64, 8)
		obs := make([]Observer, len(out))
		for i := range out {
			i := i
			obs[i] = Func(func(batch []setcover.Set) {
				for _, s := range batch {
					out[i] += int64((s.ID + 1) * (i + 1))
				}
			})
		}
		New(Options{Workers: workers, BatchSize: 64}).Run(repo, obs...)
		return out
	}
	want := sums(1)
	for _, workers := range []int{2, 3, 8, 32} {
		got := sums(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: observer %d sum %d != sequential %d",
					workers, i, got[i], want[i])
			}
		}
	}
}

func TestDefaults(t *testing.T) {
	e := New(Options{})
	if e.Workers() < 1 {
		t.Fatalf("default workers = %d", e.Workers())
	}
	if e.BatchSize() != DefaultBatchSize {
		t.Fatalf("default batch size = %d", e.BatchSize())
	}
}

// A sequential-only FuncRepo must run correctly at ANY worker count: it
// declines segmentation, so the engine's single-reader path drives the
// stateful generator from one goroutine, in stream order, even when Workers
// would otherwise decode segments in parallel. This is the loud-failure
// alternative to racing a stateful closure (stream.NewSequentialFuncRepo).
func TestSequentialFuncRepoFallsBackAtAnyWorkerCount(t *testing.T) {
	const n, m = 16, 400
	for _, workers := range []int{1, 2, 8} {
		lastID := -1 // stateful on purpose
		repo := stream.NewSequentialFuncRepo(n, m, func(id int) setcover.Set {
			if id != lastID+1 {
				t.Errorf("workers=%d: gen(%d) after gen(%d)", workers, id, lastID)
			}
			lastID = id
			return setcover.Set{Elems: []setcover.Elem{setcover.Elem(id % n)}}
		})
		var seen atomic.Int64
		pos := 0
		err := New(Options{Workers: workers, BatchSize: 32}).Run(repo, Func(func(batch []setcover.Set) {
			for _, s := range batch {
				if s.ID != pos {
					t.Errorf("workers=%d: set %d delivered at position %d", workers, s.ID, pos)
				}
				pos++
				seen.Add(1)
			}
		}))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if seen.Load() != m {
			t.Fatalf("workers=%d: saw %d of %d sets", workers, seen.Load(), m)
		}
		if repo.Passes() != 1 {
			t.Fatalf("workers=%d: counted %d passes, want 1", workers, repo.Passes())
		}
	}
}

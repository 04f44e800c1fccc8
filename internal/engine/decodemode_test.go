package engine

import (
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/scdisk"
	"repro/internal/stream"
)

// spanSegRepo wraps a segmentable repository and records every Segment
// call, so tests observe which mode the engine actually picked: the chunked
// parallel mode shows up as many chunk-sized spans.
type spanSegRepo struct {
	stream.Repository
	mu    sync.Mutex
	spans [][2]int
}

func (r *spanSegRepo) BeginSegmented() (stream.SegmentSource, bool) {
	src, ok := r.Repository.(stream.SegmentedRepository).BeginSegmented()
	if !ok {
		return nil, false
	}
	return &spanSegSource{repo: r, src: src}, true
}

type spanSegSource struct {
	repo *spanSegRepo
	src  stream.SegmentSource
}

func (s *spanSegSource) Segment(start, end int) stream.Reader {
	s.repo.mu.Lock()
	s.repo.spans = append(s.repo.spans, [2]int{start, end})
	s.repo.mu.Unlock()
	return s.src.Segment(start, end)
}

// A SliceRepo pass at Workers > 1 is a plain sequential pass: handing out
// an in-memory set is a header copy, so there is no decode to parallelize
// and SliceRepo offers no segmented pass. The engine reads it through one
// Begin — one counted pass, traced as unsegmented.
func TestEngineSkipsSegmentationForTrivialDecode(t *testing.T) {
	const m = 1000
	repo := stream.NewSliceRepo(testInstance(32, m))
	if _, ok := any(repo).(stream.SegmentedRepository); ok {
		t.Fatal("SliceRepo offers a segmented pass")
	}
	rec := &obs.Recorder{}
	r := &recorder{}
	if err := New(Options{Workers: 4, BatchSize: 64, Tracer: rec}).Run(repo, r); err != nil {
		t.Fatal(err)
	}
	if repo.Passes() != 1 {
		t.Fatalf("counted %d passes, want 1", repo.Passes())
	}
	if p := rec.Passes(); len(p) != 1 || p[0].Segmented {
		t.Fatalf("trace %+v, want one unsegmented pass", p)
	}
	r.verify(t, m, 64)
}

// A disk-backed pass (real varint decode work) must take the chunked
// parallel path at Workers > 1.
func TestEngineKeepsSegmentationForDiskRepo(t *testing.T) {
	const m = 600
	path := filepath.Join(t.TempDir(), "cost.scb")
	if err := scdisk.WriteFile(path, testInstance(32, m)); err != nil {
		t.Fatal(err)
	}
	d, err := scdisk.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	repo := &spanSegRepo{Repository: d}
	r := &recorder{}
	if err := New(Options{Workers: 4, BatchSize: 64}).Run(repo, r); err != nil {
		t.Fatal(err)
	}
	if len(repo.spans) < 2 {
		t.Fatalf("disk source read through %d spans (%v), want chunked parallel decode", len(repo.spans), repo.spans)
	}
	// The spans must tile [0, m) exactly (strided ownership hands them out
	// in decoder order; sort-free check via coverage count).
	covered := 0
	for _, sp := range repo.spans {
		covered += sp[1] - sp[0]
	}
	if covered != m {
		t.Fatalf("spans cover %d of %d sets", covered, m)
	}
	if d.Passes() != 1 {
		t.Fatalf("segmented pass counted %d passes, want 1", d.Passes())
	}
	r.verify(t, m, 64)
}

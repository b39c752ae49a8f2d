package core

import (
	"reflect"
	"testing"

	"repro/internal/synth"
)

// syntheticPair generates the two calibrated logs the paper studies; the
// parallel-equality tests run the full battery on real-scale data.
func syntheticPair(t *testing.T) (*Study, *Study) {
	t.Helper()
	t2, t3, err := synth.GenerateBoth(42)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewStudy(t2)
	if err != nil {
		t.Fatal(err)
	}
	s3, err := NewStudy(t3)
	if err != nil {
		t.Fatal(err)
	}
	return s2, s3
}

// TestRunParallelMatchesSequential is the determinism guarantee: the
// Study produced under any pool width is deeply identical to the
// sequential one, on both generations' synthetic logs.
func TestRunParallelMatchesSequential(t *testing.T) {
	t2, t3, err := synth.GenerateBoth(42)
	if err != nil {
		t.Fatal(err)
	}
	seq2, seq3 := syntheticPair(t)
	for _, width := range []int{0, 2, 4, 16} {
		par2, err := Run(t2, Options{Parallelism: width})
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if !reflect.DeepEqual(seq2, par2) {
			t.Errorf("width %d: Tsubame-2 study diverged from sequential", width)
		}
		par3, err := Run(t3, Options{Parallelism: width})
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if !reflect.DeepEqual(seq3, par3) {
			t.Errorf("width %d: Tsubame-3 study diverged from sequential", width)
		}
	}
}

// TestCompareParallelMatchesSequential extends the guarantee to the
// cross-generation comparison.
func TestCompareParallelMatchesSequential(t *testing.T) {
	t2, t3, err := synth.GenerateBoth(42)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Compare(t2, t3)
	if err != nil {
		t.Fatal(err)
	}
	par, err := CompareParallel(t2, t3, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("parallel comparison diverged from sequential")
	}
}

// TestRunErrorMatchesSequential: on a log where part of the battery
// fails, the parallel engine must surface the same error the sequential
// battery hits first.
func TestRunErrorMatchesSequential(t *testing.T) {
	log := tinyLog(t) // too sparse for the per-type analyses
	_, seqErr := NewStudy(log)
	for _, width := range []int{2, 8} {
		_, parErr := Run(log, Options{Parallelism: width})
		if (seqErr == nil) != (parErr == nil) {
			t.Fatalf("width %d: sequential err %v vs parallel err %v", width, seqErr, parErr)
		}
		if seqErr != nil && seqErr.Error() != parErr.Error() {
			t.Errorf("width %d: error diverged:\n  sequential: %v\n  parallel:   %v", width, seqErr, parErr)
		}
	}
}

// TestShardedVariantsMatchSequential pins every sharded inner loop to its
// sequential counterpart on the full-scale synthetic log.
func TestShardedVariantsMatchSequential(t *testing.T) {
	t2, _, err := synth.GenerateBoth(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{0, 3, 8} {
		seqSpatial, err := SpatialAnalysis(t2)
		if err != nil {
			t.Fatal(err)
		}
		parSpatial, err := SpatialAnalysisParallel(t2, width)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seqSpatial, parSpatial) {
			t.Errorf("width %d: spatial analysis diverged", width)
		}

		seqTBF, err := TBFByCategory(t2, 5)
		if err != nil {
			t.Fatal(err)
		}
		parTBF, err := TBFByCategoryParallel(t2, 5, width)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seqTBF, parTBF) {
			t.Errorf("width %d: per-type TBF diverged", width)
		}

		seqTTR, err := TTRByCategory(t2, 2)
		if err != nil {
			t.Fatal(err)
		}
		parTTR, err := TTRByCategoryParallel(t2, 2, width)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seqTTR, parTTR) {
			t.Errorf("width %d: per-type TTR diverged", width)
		}
	}
}

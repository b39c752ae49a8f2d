package core

import (
	"reflect"
	"testing"

	"repro/internal/failures"
	"repro/internal/index"
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
	oldIx, newIx := index.New(t2), index.New(t3)
	oldStudy, err := RunView(oldIx, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	newStudy, err := RunView(newIx, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	par, err := compareStudies(oldIx, newIx, oldStudy, newStudy)
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
		seqSpatial, err := spatialAnalysis(index.New(t2), 1)
		if err != nil {
			t.Fatal(err)
		}
		parSpatial, err := spatialAnalysis(index.New(t2), width)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seqSpatial, parSpatial) {
			t.Errorf("width %d: spatial analysis diverged", width)
		}

		seqTBF, err := tbfByCategory(index.New(t2), 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		parTBF, err := tbfByCategory(index.New(t2), 5, width)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seqTBF, parTBF) {
			t.Errorf("width %d: per-type TBF diverged", width)
		}

		seqTTR, err := ttrByCategory(index.New(t2), 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		parTTR, err := ttrByCategory(index.New(t2), 2, width)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seqTTR, parTTR) {
			t.Errorf("width %d: per-type TTR diverged", width)
		}
	}
}

// TestStandaloneAnalysesMatchSharedIndex checks that each analysis run on
// a private index over the log lands on exactly the Study field produced
// by Run's shared index: sharing one view across phases must never change
// a result.
func TestStandaloneAnalysesMatchSharedIndex(t *testing.T) {
	t2, t3, err := synth.GenerateBoth(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, log := range []*failures.Log{t2, t3} {
		study, err := Run(log, Options{Parallelism: 0})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := categoryBreakdown(index.New(log)); err != nil || !reflect.DeepEqual(got, study.Breakdown) {
			t.Errorf("%v: standalone categoryBreakdown diverges (%v)", log.System(), err)
		}
		if got, err := tbfAnalysis(index.New(log)); err != nil || !reflect.DeepEqual(got, study.TBF) {
			t.Errorf("%v: standalone tbfAnalysis diverges (%v)", log.System(), err)
		}
		if got, err := ttrAnalysis(index.New(log)); err != nil || !reflect.DeepEqual(got, study.TTR) {
			t.Errorf("%v: standalone ttrAnalysis diverges (%v)", log.System(), err)
		}
		if got, err := tbfByCategory(index.New(log), minPerTypeTBF, 1); err != nil || !reflect.DeepEqual(got, study.TBFPerType) {
			t.Errorf("%v: standalone tbfByCategory diverges (%v)", log.System(), err)
		}
		if got, err := ttrByCategory(index.New(log), minPerTypeTTR, 1); err != nil || !reflect.DeepEqual(got, study.TTRPerType) {
			t.Errorf("%v: standalone ttrByCategory diverges (%v)", log.System(), err)
		}
		if got, err := monthlySeasonality(index.New(log)); err != nil || !reflect.DeepEqual(got, study.Seasonal) {
			t.Errorf("%v: standalone monthlySeasonality diverges (%v)", log.System(), err)
		}
		if got, err := nodeFailureCounts(index.New(log)); err != nil || !reflect.DeepEqual(got, study.NodeCounts) {
			t.Errorf("%v: standalone nodeFailureCounts diverges (%v)", log.System(), err)
		}
	}
}

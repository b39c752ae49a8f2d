package main

import (
	"math"
	"strings"
)

// metricSpec is one metric's name and unit, as BENCHMARK.json lists it.
type metricSpec struct{ name, unit string }

// endToEndSpecs are the numbers a user of each workload sees. Every
// workload reports all of them; what an operation is differs by workload
// (README.md).
var endToEndSpecs = []metricSpec{
	{"setup_s", "s"},
	{"op_s", "s"},
	{"tail_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayerSpecs are the traced run's numbers. Every workload reports all
// of them; a call the workload never makes reads 0.
var perLayerSpecs = func() []metricSpec {
	specs := []metricSpec{
		{"cmd.gen_s", "s"}, {"cmd.convert_s", "s"}, {"cmd.digest_s", "s"},
		{"cmd.analyze_s", "s"}, {"cmd.fit_s", "s"}, {"cmd.sweep_s", "s"},
		{"analyze.cpu_util", "frac"}, {"fit.cpu_util", "frac"}, {"sweep.cpu_util", "frac"},
		{"synth.generate_ms", "ms"},
		{"trace.write_tsbc_ms", "ms"}, {"trace.read_tsbc_ms", "ms"},
		{"trace.write_ndjson_ms", "ms"}, {"trace.read_ndjson_ms", "ms"},
		{"trace.tsbc_bytes", "bytes"}, {"trace.ndjson_bytes", "bytes"},
		{"trace.parse_batch_ms", "ms"},
		{"index.facets_ms", "ms"}, {"index.store_append_ms", "ms"},
		{"core.run_view_ms", "ms"}, {"core.run_view_epoch_ms", "ms"},
		{"core.rolling_mtbf_ms", "ms"}, {"core.ttr_significance_ms", "ms"},
		{"core.digest_from_log_ms", "ms"}, {"core.diff_periods_ms", "ms"},
		{"report.figures_ms", "ms"},
		{"textreport.analyze_ms", "ms"}, {"textreport.fit_ms", "ms"}, {"textreport.stream_digest_ms", "ms"},
		{"failures.fit_samples_ms", "ms"}, {"dist.fit_all_many_ms", "ms"},
		{"sweep.new_evaluator_ms", "ms"}, {"sim.cell_ms", "ms"}, {"remediate.cell_ms", "ms"},
	}
	for _, ep := range serveEndpoints {
		specs = append(specs, metricSpec{"serve." + ep + "_p50_ms", "ms"}, metricSpec{"serve." + ep + "_p99_ms", "ms"})
	}
	return append(specs,
		metricSpec{"serve.cache_hit_ratio", "frac"},
		metricSpec{"serve.slo_frac", "frac"},
		metricSpec{"serve.gen_lag_p99_ms", "ms"},
		metricSpec{"serve.backlog", "count"},
	)
}()

// ops are a workload's timed operations: how long each took and the peak
// resident memory of the processes it ran.
type ops struct {
	seconds  []float64
	rssBytes []float64
	// meanOp makes op_s the mean of seconds instead of their median. An
	// open loop whose cheap operations share the server with heavy ones
	// for about half of the time has a median on the edge between the
	// two, which moves several-fold with the host's scheduling.
	meanOp bool
}

// add records one operation made of the processes ps, run one after
// another.
func (o *ops) add(ps ...proc) {
	var wall float64
	var rss int64
	for _, p := range ps {
		wall += p.wall.Seconds()
		rss = max(rss, p.maxRSS)
	}
	o.seconds = append(o.seconds, wall)
	o.rssBytes = append(o.rssBytes, float64(rss))
}

// endToEndMetrics reports the median set-up time, the median (or mean)
// operation time, the tail, and the median operation's peak memory.
func endToEndMetrics(o ops, setups []float64) map[string]metric {
	op := median(o.seconds)
	if o.meanOp {
		op = mean(o.seconds)
	}
	return map[string]metric{
		"setup_s":     {median(setups), "s"},
		"op_s":        {op, "s"},
		"tail_s":      {tail(o.seconds), "s"},
		"peak_rss_mb": {median(o.rssBytes) / (1 << 20), "MB"},
	}
}

// tail returns the median of the ten largest values of xs (of all of
// them when there are fewer): a tail statistic that always rests on ten
// samples. Taking one order statistic instead would put serve-live's tail
// on the boundary between its analyze and fit queries.
func tail(xs []float64) float64 {
	s := sortedCopy(xs)
	return median(s[max(len(s)-10, 0):])
}

// perLayerMetrics fills every per-layer metric: from the workload's own
// numbers where it has one, else the median duration of the spans of
// that name, else 0 for a call the workload never makes.
func perLayerMetrics(own map[string]float64, spans map[string][]float64) map[string]metric {
	out := make(map[string]metric, len(perLayerSpecs))
	for _, s := range perLayerSpecs {
		v, ok := own[s.name]
		if !ok {
			if d := spans[strings.TrimSuffix(s.name, "_ms")]; len(d) > 0 {
				v = median(d)
			}
		}
		if math.IsNaN(v) {
			v = 0
		}
		out[s.name] = metric{v, s.unit}
	}
	return out
}

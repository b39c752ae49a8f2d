package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/failures"
	"repro/internal/synth"
	"repro/internal/textreport"
	"repro/internal/trace"
)

// trace1m is the data plane: a closed loop that synthesizes the
// 1M-record trace to .tsbc, converts it to NDJSON and back, and digests
// it. Synthesis and the encoders and decoders do the work; the index and
// the analysis battery do none.
type trace1m struct {
	e         *env
	profile   *synth.Profile
	gen       procSet
	convert   procSet // an iteration's two conversions, in order
	digest    procSet
	ops       ops
	reference []byte // the set-up's .tsbc; every iteration's gen must match it
	digestOut []byte
	sizes     [2]float64 // .tsbc and NDJSON bytes, from the replay
}

func newTrace1m(e *env) workload { return &trace1m{e: e} }

// setup scales the profile and generates the reference trace the loop's
// generations are checked against.
func (w *trace1m) setup(ctx context.Context) (err error) {
	e := w.e
	if w.profile, err = e.writeScaledProfile(ctx, e.scale.traceFactor, e.path("profile.json")); err != nil {
		return err
	}
	ref := e.path("reference.tsbc")
	if _, err := e.run(ctx, io.Discard, "tsubame-gen", "-profile", e.path("profile.json"),
		"-seed", fmt.Sprint(e.seed), "-out", ref); err != nil {
		return err
	}
	w.reference, err = os.ReadFile(ref)
	return err
}

func (w *trace1m) measure(ctx context.Context, until time.Time) error {
	e := w.e
	tsbc, ndjson, back := e.path("trace.tsbc"), e.path("trace.ndjson"), e.path("back.tsbc")
	for first := true; first || time.Now().Before(until); first = false {
		gen, err := e.run(ctx, io.Discard, "tsubame-gen", "-profile", e.path("profile.json"),
			"-seed", fmt.Sprint(e.seed), "-out", tsbc)
		if err != nil {
			return err
		}
		w.gen.add(gen)
		iteration := []proc{gen}
		for _, conv := range [][2]string{{tsbc, ndjson}, {ndjson, back}} {
			p, err := e.run(ctx, io.Discard, "tsubame-convert", "-in", conv[0], "-out", conv[1])
			if err != nil {
				return err
			}
			w.convert.add(p)
			iteration = append(iteration, p)
		}
		var out bytes.Buffer
		p, err := e.run(ctx, &out, "tsubame-digest", "-in", tsbc, "-days", "30", "-quantiles")
		if err != nil {
			return err
		}
		w.digest.add(p)
		w.ops.add(append(iteration, p)...)

		generated, err := os.ReadFile(tsbc)
		if err != nil {
			return err
		}
		converted, err := os.ReadFile(back)
		if err != nil {
			return err
		}
		e.check(bytes.Equal(generated, w.reference), "tsubame-gen output differs from the set-up's")
		e.check(bytes.Equal(converted, generated), "NDJSON -> .tsbc does not reproduce tsubame-gen's file")
		if w.digestOut == nil {
			w.digestOut = out.Bytes()
		} else {
			e.check(bytes.Equal(out.Bytes(), w.digestOut), "tsubame-digest output differs between iterations")
		}
	}
	return nil
}

// verify compares the streaming digest with the batch digest over the
// materialized log.
func (w *trace1m) verify(context.Context) error {
	f, err := os.Open(w.e.path("trace.tsbc"))
	if err != nil {
		return err
	}
	defer f.Close()
	log, err := trace.ReadTSBC(f)
	if err != nil {
		return w.e.tally.record(err)
	}
	var buf bytes.Buffer
	_, err = textreport.DigestOpts(&buf, log, textreport.DefaultDigestFrom(log, 30), 30, core.DigestOptions{Quantiles: true})
	if w.e.tally.record(err) != nil {
		return err
	}
	w.e.check(bytes.Equal(buf.Bytes(), w.digestOut), "streaming digest differs from the batch digest of the same log")
	return nil
}

// replay runs the loop's layers in-process: gen's synthesis and write,
// both conversions, then the streaming digest and its batch twin.
func (w *trace1m) replay(tr *tracer, req int) error {
	e := w.e
	tsbc, ndjson, back := e.path("replay.tsbc"), e.path("replay.ndjson"), e.path("replay-back.tsbc")
	root := tr.begin("trace.iteration", -1, req)
	defer tr.end(root)
	var log *failures.Log
	err := tr.do("synth.generate", root, req, func() (err error) {
		log, err = synth.Generate(w.profile, e.seed)
		return err
	})
	if err == nil {
		err = writeFile(tr, root, req, "trace.write_tsbc", tsbc, log, trace.WriteTSBC)
	}
	if err == nil {
		log, err = readFile(tr, root, req, "trace.read_tsbc", tsbc, trace.ReadTSBC)
	}
	if err == nil {
		err = writeFile(tr, root, req, "trace.write_ndjson", ndjson, log, trace.WriteNDJSON)
	}
	if err == nil {
		log, err = readFile(tr, root, req, "trace.read_ndjson", ndjson, trace.ReadNDJSON)
	}
	if err == nil {
		err = writeFile(tr, root, req, "trace.write_tsbc", back, log, trace.WriteTSBC)
	}
	if err != nil {
		return err
	}
	from := textreport.DefaultDigestFrom(log, 30)
	opts := core.DigestOptions{Quantiles: true}
	if err := tr.do("textreport.stream_digest", root, req, func() error {
		f, err := os.Open(tsbc)
		if err != nil {
			return err
		}
		defer f.Close()
		br, err := trace.NewBlockReader(f)
		if err != nil {
			return err
		}
		_, err = textreport.StreamDigest(io.Discard, br, from, 30, opts)
		return err
	}); err != nil {
		return err
	}
	if err := tr.do("core.digest_from_log", root, req, func() error {
		_, err := core.DigestFromLog(log, from, 30, opts)
		return err
	}); err != nil {
		return err
	}
	for i, path := range []string{tsbc, ndjson} {
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		w.sizes[i] = float64(st.Size())
	}
	return nil
}

func writeFile(tr *tracer, parent, req int, span, path string, log *failures.Log, write func(io.Writer, *failures.Log) error) error {
	return tr.do(span, parent, req, func() error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f, log); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
}

func readFile(tr *tracer, parent, req int, span, path string, read func(io.Reader) (*failures.Log, error)) (log *failures.Log, err error) {
	err = tr.do(span, parent, req, func() error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		log, err = read(f)
		return err
	})
	return log, err
}

func (w *trace1m) close() error { return nil }

func (w *trace1m) endToEnd() ops { return w.ops }

func (w *trace1m) perLayer() map[string]float64 {
	conv := w.convert.wallSeconds()
	var roundTrips []float64
	for i := 0; i+1 < len(conv); i += 2 {
		roundTrips = append(roundTrips, conv[i]+conv[i+1])
	}
	return map[string]float64{
		"cmd.gen_s":          median(w.gen.wallSeconds()),
		"cmd.convert_s":      median(roundTrips),
		"cmd.digest_s":       median(w.digest.wallSeconds()),
		"trace.tsbc_bytes":   w.sizes[0],
		"trace.ndjson_bytes": w.sizes[1],
	}
}

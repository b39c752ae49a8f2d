// Command tsubame-serve runs the failure-analytics HTTP service: clients
// stream NDJSON failure records into an epoch-snapshot index and query
// the analysis reports (analyze, digest, diff, fit) over everything
// ingested so far. Query responses are byte-identical to the
// corresponding CLI run over the same records; docs/SERVICE.md documents
// the API.
//
// Usage:
//
//	tsubame-serve -addr 127.0.0.1:8321
//	tsubame-gen -system t2 -format ndjson |
//	    curl --data-binary @- http://127.0.0.1:8321/v1/ingest
//	curl http://127.0.0.1:8321/v1/analyze
//
// The listen address (with the resolved port for -addr :0) is printed to
// stdout once the server accepts connections. SIGINT/SIGTERM drain
// in-flight requests and exit cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsubame-serve: ")
	var (
		addr       = flag.String("addr", "127.0.0.1:8321", "listen address (use :0 for an ephemeral port)")
		systemName = flag.String("system", "t2", "system whose failure stream to ingest: t2 or t3")
		maxBody    = flag.Int("max-body", serve.DefaultMaxBodyBytes, "maximum ingest request body in bytes")
		maxLine    = flag.Int("max-line", serve.DefaultMaxLineBytes, "maximum NDJSON line length in bytes")
		para       = flag.Int("parallel", 0, "analysis worker-pool width per query (0 = all cores)")
		maxRecords = flag.Int("max-records", 0, "retain at most this many newest records (0 = unlimited)")
		maxAge     = flag.Duration("max-age", 0, "retain records within this window of the newest record's time (0 = unlimited)")
		manifest   = cli.ManifestFlag()
		debugAddr  = cli.DebugAddrFlag()
	)
	flag.Parse()
	cli.CheckFlags(
		cli.PositiveInt("max-body", *maxBody),
		cli.PositiveInt("max-line", *maxLine),
		cli.NonNegativeInt("parallel", *para),
		cli.NonNegativeInt("max-records", *maxRecords),
		cli.NonNegativeDuration("max-age", *maxAge),
		cli.KnownSystem("system", *systemName),
	)
	system, err := cli.ParseSystem(*systemName)
	if err != nil {
		log.Fatal(err)
	}
	run, err := cli.StartRun("tsubame-serve", *manifest, *debugAddr)
	if err != nil {
		log.Fatal(err)
	}

	server, err := serve.New(serve.Config{
		System:       system,
		MaxBodyBytes: int64(*maxBody),
		MaxLineBytes: *maxLine,
		Parallelism:  *para,
		MaxRecords:   *maxRecords,
		MaxAge:       *maxAge,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// The readiness line: harnesses (and operators scripting against
	// -addr :0) parse the resolved address from stdout.
	fmt.Printf("tsubame-serve listening on http://%s\n", ln.Addr())

	httpServer := &http.Server{
		Handler:           server.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan error, 1)
	go func() {
		<-ctx.Done()
		drain, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- httpServer.Shutdown(drain)
	}()

	if err := httpServer.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	if err := <-shutdownDone; err != nil {
		log.Fatal(err)
	}
	if m := run.Manifest(); m != nil {
		m.SetRecordCount("records", server.Store().Snapshot().View().Len())
	}
	if err := run.Finish(); err != nil {
		log.Fatal(err)
	}
}

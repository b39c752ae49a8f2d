// Command tsubame-remediate compares closed-loop auto-remediation
// policies on failure processes fitted from a synthetic log: reactive
// (act on detection), prediction-initiated (act on oracle pre-alarms),
// and scheduled-maintenance batching. Each policy drives per-node
// cordon/drain/reset/replace/verify state machines through the same
// calendar-queue engine that dispatches failures, and every policy
// replays the identical failure tape per seed, so the emitted JSON
// report attributes availability, lost node-hours, spare consumption,
// and step-failure differences to the policies alone. Output is
// deterministic in (flags, seed) and byte-identical at any -workers
// setting.
//
// Usage:
//
//	tsubame-remediate -system t2 -seeds 4 -accuracy 0.5
//	tsubame-remediate -system t3 -policies reactive,batch -spares fixed -stock 2
//	tsubame-remediate -system t2 -workers 8 > report.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/parallel"
	"repro/internal/remediate"
	"repro/internal/sim"
	"repro/internal/spares"
	"repro/internal/synth"
	"repro/internal/system"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsubame-remediate: ")
	var (
		systemName  = flag.String("system", "t2", "system whose fitted processes drive the simulation: t2 or t3")
		policyNames = flag.String("policies", "reactive,predictive,batch", "comma-separated policies to compare: reactive, predictive, batch")
		seeds       = flag.Int("seeds", 4, "seeds per policy (consecutive from -seed)")
		seed        = flag.Int64("seed", 42, "first simulation seed")
		logSeed     = flag.Int64("log-seed", 42, "seed of the synthetic log the processes are fitted from")
		horizon     = flag.Float64("horizon", 8760, "simulated hours per run")
		crews       = flag.Int("crews", 4, "remediation crews (0 = unlimited)")
		accuracy    = flag.Float64("accuracy", 0.5, "failure-prediction accuracy in [0, 1) (0 = no oracle)")
		leadTime    = flag.Float64("lead-time", 24, "prediction lead time in hours")
		falseAlarms = flag.Float64("false-alarms", 12, "fleet-wide false alarms per year")
		batchWin    = flag.Float64("batch-window", 168, "maintenance-window cadence of the batch policy in hours")
		sparesKind  = flag.String("spares", "unlimited", "spare-part policy: unlimited, fixed")
		stock       = flag.Int("stock", 2, "initial per-category stock for -spares fixed")
		lead        = flag.Float64("lead", 72, "spare delivery lead time in hours")
		workers     = flag.Int("workers", 0, "worker-pool width (0 = all cores, 1 = sequential)")
		manifest    = cli.ManifestFlag()
		debugAddr   = cli.DebugAddrFlag()
	)
	flag.Parse()
	cli.CheckFlags(
		cli.PositiveInt("seeds", *seeds),
		cli.NonNegativeInt("workers", *workers),
		cli.PositiveFloat("horizon", *horizon),
		cli.NonNegativeInt("crews", *crews),
		cli.FractionInOpenUnit("accuracy", *accuracy),
		cli.NonNegativeFloat("lead-time", *leadTime),
		cli.NonNegativeFloat("false-alarms", *falseAlarms),
		cli.PositiveFloat("batch-window", *batchWin),
		cli.NonNegativeInt("stock", *stock),
		cli.PositiveFloat("lead", *lead),
		checkPolicies(*policyNames),
		checkSpares(*sparesKind),
		cli.KnownSystem("system", *systemName),
	)
	obsRun, err := cli.StartRun("tsubame-remediate", *manifest, *debugAddr)
	if err != nil {
		log.Fatal(err)
	}

	sys, err := cli.ParseSystem(*systemName)
	if err != nil {
		log.Fatal(err)
	}
	failureLog, err := synth.GenerateSystem(sys, *logSeed)
	if err != nil {
		log.Fatal(err)
	}
	procs, err := sim.ProcessesFromLog(failureLog, 10)
	if err != nil {
		log.Fatal(err)
	}
	machine, err := system.ForSystem(sys)
	if err != nil {
		log.Fatal(err)
	}

	policies, err := buildPolicies(*policyNames, *batchWin)
	if err != nil {
		log.Fatal(err)
	}
	seedList := make([]int64, *seeds)
	for i := range seedList {
		seedList[i] = *seed + int64(i)
	}
	cc := remediate.CompareConfig{
		Base: remediate.Config{
			Nodes:        machine.Nodes,
			NodesPerRack: machine.NodesPerRack,
			HorizonHours: *horizon,
			Processes:    procs,
			Crews:        *crews,
			Steps:        remediate.DefaultSteps(),
		},
		Policies: policies,
		Seeds:    seedList,
		Workers:  *workers,
	}
	if *accuracy > 0 {
		cc.Base.Predictor = remediate.Predictor{
			Accuracy:           *accuracy,
			LeadTimeHours:      *leadTime,
			FalseAlarmsPerYear: *falseAlarms,
		}
	}
	if *sparesKind == "fixed" {
		// Parts policies carry mutable stock, so every run builds its own.
		stockN, leadH := *stock, *lead
		cc.NewParts = func() sim.PartsPolicy {
			parts, err := spares.NewFixedStock(stockN, leadH)
			if err != nil {
				// Flags were validated above; a failure here is a bug.
				panic(err)
			}
			return parts
		}
	}

	if m := obsRun.Manifest(); m != nil {
		m.AddSeedRange(*seed, *seeds)
		m.PoolWidth = parallel.Width(*workers, len(policies)*len(seedList))
		m.SetRecordCount("fitted_records", failureLog.Len())
		m.SetRecordCount("runs", len(policies)*len(seedList))
	}

	report, err := remediate.Compare(cc)
	if err != nil {
		log.Fatal(err)
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(append(out, '\n'))
	fmt.Fprintf(os.Stderr, "tsubame-remediate: compared %d policies x %d seeds on %v; winner %s\n",
		len(policies), len(seedList), sys, report.Winner)
	if err := obsRun.Finish(); err != nil {
		log.Fatal(err)
	}
}

// buildPolicies parses the comma-separated policy list.
func buildPolicies(names string, batchWindow float64) ([]remediate.Policy, error) {
	var out []remediate.Policy
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		p, err := remediate.PolicyByName(name, batchWindow)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-policies lists no policies")
	}
	return out, nil
}

// checkPolicies pre-validates -policies for the exit-2 usage contract.
func checkPolicies(names string) error {
	_, err := buildPolicies(names, 1)
	return err
}

// checkSpares pre-validates -spares.
func checkSpares(kind string) error {
	switch kind {
	case "unlimited", "fixed":
		return nil
	default:
		return fmt.Errorf("-spares: unknown policy %q (want unlimited or fixed)", kind)
	}
}

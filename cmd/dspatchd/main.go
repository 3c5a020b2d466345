// Command dspatchd serves the DSPatch experiment engine as a long-running
// simulation-as-a-service daemon (see internal/service for the API).
//
// Usage:
//
//	dspatchd                                   # listen on :8491
//	dspatchd -addr 127.0.0.1:9000 -cache-dir ~/.cache/dspatchd
//	dspatchd -job-workers 4 -sim-workers 2 -queue 128
//	dspatchd -drain-timeout 60s                # SIGTERM grace period
//	dspatchd -scenario specs.json              # extend the workload roster at startup
//
// Fleet mode (see the README's Fleet section):
//
//	dspatchd -coordinator -workers http://w1:8491,http://w2:8491 \
//	         -store-dir /shared/results -lease-ttl 60s -max-attempts 4
//	dspatchd -coordinator -workers-file /etc/dspatch/workers.txt  # dynamic roster
//
// A coordinator executes campaigns across the worker daemons: points are
// dispatched under leases, failures re-dispatch elsewhere with backoff, and
// the NDJSON stream stays byte-identical to a single-node run. The
// -chaos-file flag arms a deterministic fault-injection schedule on a
// worker (test/CI tooling, never production).
//
// Durability and self-protection (see the README's Durability section):
//
//	dspatchd -store-dir /var/lib/dspatchd            # crash-recoverable campaigns
//	dspatchd -quota-rate 2 -quota-burst 10 -campaign-high 16
//
// With -store-dir every campaign appends terminal point events to a
// write-ahead journal; a crashed or restarted daemon resumes unsealed
// campaigns under their original job IDs, re-running only unfinished
// points while the NDJSON stream stays byte-identical. The daemon keeps one
// result store: -store-dir when given (it is then also the run cache),
// otherwise -cache-dir.
//
// The daemon drains gracefully on SIGINT/SIGTERM: intake stops, running
// jobs get -drain-timeout to finish (then are canceled), and the process
// exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dspatch/internal/service"
	"dspatch/internal/service/chaos"
	"dspatch/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(appMain(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// appMain is main with its dependencies injected, so tests can drive the
// daemon end to end. It blocks until ctx is canceled (graceful drain, exit
// 0) or startup fails.
func appMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dspatchd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8491", "listen address")
	jobWorkers := fs.Int("job-workers", 0, "concurrent job workers (0 = default 2)")
	simWorkers := fs.Int("sim-workers", 0, "simulation goroutines per job (0 = GOMAXPROCS/job-workers)")
	queue := fs.Int("queue", 0, "queued jobs per job worker before 503 (0 = default 64)")
	maxJobs := fs.Int("max-jobs", 0, "retained job records before eviction (0 = default 4096)")
	cacheDir := fs.String("cache-dir", "", "persistent run-cache directory shared with dspatchsim (unused with -store-dir, which is also the run cache)")
	drain := fs.Duration("drain-timeout", 30*time.Second, "how long running jobs may finish after SIGTERM")
	maxWait := fs.Duration("max-wait", 30*time.Second, "cap on ?wait= long-polls and campaign follow streams")
	maxCampStreams := fs.Int("max-campaign-streams", 0, "finished campaigns keeping their full NDJSON stream in memory (0 = default 64)")
	coordinator := fs.Bool("coordinator", false, "execute campaigns across -workers daemons instead of the local engine")
	workers := fs.String("workers", "", "comma-separated worker daemon URLs (requires -coordinator)")
	workersFile := fs.String("workers-file", "", "worker roster file, one URL per line, reloaded periodically (requires -coordinator; joins admit via /readyz)")
	workersReload := fs.Duration("workers-reload", 0, "roster reload period for -workers-file (0 = default 5s)")
	storeDir := fs.String("store-dir", "", "durable result store + campaign journal directory (run cache; crash resume; fleet dedup)")
	leaseTTL := fs.Duration("lease-ttl", 0, "dispatch lease before a worker is presumed hung (0 = default 60s)")
	maxAttempts := fs.Int("max-attempts", 0, "dispatches per point before it is dropped with a reason (0 = default 4)")
	quotaRate := fs.Float64("quota-rate", 0, "per-client submission tokens per second (0 = quotas off; keyed by X-Dspatch-Client)")
	quotaBurst := fs.Int("quota-burst", 0, "per-client token-bucket capacity (0 = default 8; requires -quota-rate)")
	campHigh := fs.Int("campaign-high", 0, "active-campaign count that sheds new campaigns with 503 (0 = off)")
	campLow := fs.Int("campaign-low", 0, "active-campaign count that re-opens admission after a shed (0 = default campaign-high/2)")
	chaosFile := fs.String("chaos-file", "", "fault-injection schedule JSON (test tooling; see internal/service/chaos)")
	chaosWorker := fs.String("chaos-worker", "", "label matching this daemon in the -chaos-file schedule")
	scenario := fs.String("scenario", "", "register scenario spec file(s) at startup (JSON object or array; comma-separated paths)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(msg string) int {
		fmt.Fprintln(stderr, "dspatchd:", msg)
		return 2
	}
	switch {
	case *addr == "":
		return fail("-addr must not be empty")
	case *jobWorkers < 0:
		return fail(fmt.Sprintf("-job-workers must be non-negative, got %d", *jobWorkers))
	case *simWorkers < 0:
		return fail(fmt.Sprintf("-sim-workers must be non-negative, got %d", *simWorkers))
	case *queue < 0:
		return fail(fmt.Sprintf("-queue must be non-negative, got %d", *queue))
	case *maxJobs < 0:
		return fail(fmt.Sprintf("-max-jobs must be non-negative, got %d", *maxJobs))
	case *drain <= 0:
		return fail(fmt.Sprintf("-drain-timeout must be positive, got %s", *drain))
	case *maxWait <= 0:
		return fail(fmt.Sprintf("-max-wait must be positive, got %s", *maxWait))
	case *maxCampStreams < 0:
		return fail(fmt.Sprintf("-max-campaign-streams must be non-negative, got %d", *maxCampStreams))
	case *coordinator && *workers == "" && *workersFile == "":
		return fail("-coordinator requires -workers or -workers-file")
	case *workers != "" && *workersFile != "":
		return fail("-workers and -workers-file are mutually exclusive")
	case !*coordinator && *workers != "":
		return fail("-workers requires -coordinator")
	case !*coordinator && *workersFile != "":
		return fail("-workers-file requires -coordinator")
	case !*coordinator && *workersReload != 0:
		return fail("-workers-reload requires -coordinator")
	case *workersReload < 0:
		return fail(fmt.Sprintf("-workers-reload must be non-negative, got %s", *workersReload))
	case !*coordinator && (*leaseTTL != 0 || *maxAttempts != 0):
		return fail("-lease-ttl/-max-attempts require -coordinator")
	case *leaseTTL < 0:
		return fail(fmt.Sprintf("-lease-ttl must be non-negative, got %s", *leaseTTL))
	case *maxAttempts < 0:
		return fail(fmt.Sprintf("-max-attempts must be non-negative, got %d", *maxAttempts))
	case *quotaRate < 0:
		return fail(fmt.Sprintf("-quota-rate must be non-negative, got %g", *quotaRate))
	case *quotaBurst < 0:
		return fail(fmt.Sprintf("-quota-burst must be non-negative, got %d", *quotaBurst))
	case *quotaBurst > 0 && *quotaRate == 0:
		return fail("-quota-burst requires -quota-rate")
	case *campHigh < 0:
		return fail(fmt.Sprintf("-campaign-high must be non-negative, got %d", *campHigh))
	case *campLow < 0:
		return fail(fmt.Sprintf("-campaign-low must be non-negative, got %d", *campLow))
	case *campLow > 0 && *campHigh == 0:
		return fail("-campaign-low requires -campaign-high")
	case *campHigh > 0 && *campLow >= *campHigh:
		return fail(fmt.Sprintf("-campaign-low (%d) must be below -campaign-high (%d)", *campLow, *campHigh))
	case *chaosWorker != "" && *chaosFile == "":
		return fail("-chaos-worker requires -chaos-file")
	}
	// Startup scenario registration: names become part of this daemon's
	// roster before any request (or journal resume) resolves them. Campaigns
	// can also carry their own inline "scenarios" block; this flag is for
	// long-lived rosters shared across campaigns.
	if *scenario != "" {
		for _, path := range strings.Split(*scenario, ",") {
			if path = strings.TrimSpace(path); path == "" {
				continue
			}
			ws, err := trace.RegisterSpecFile(path)
			if err != nil {
				return fail(err.Error())
			}
			for _, w := range ws {
				fmt.Fprintf(stdout, "registered scenario %q (%s, %s)\n", w.Name, w.Category, w.Source)
			}
		}
	}

	var fleet *service.FleetConfig
	if *coordinator {
		var urls []string
		for _, u := range strings.Split(*workers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, strings.TrimRight(u, "/"))
			}
		}
		if len(urls) == 0 && *workersFile == "" {
			return fail("-workers has no usable URLs")
		}
		fleet = &service.FleetConfig{
			Workers:       urls,
			WorkersFile:   *workersFile,
			WorkersReload: *workersReload,
			LeaseTTL:      *leaseTTL,
			MaxAttempts:   *maxAttempts,
		}
	}

	var middleware func(http.Handler) http.Handler
	crashAfterPoints := 0
	if *chaosFile != "" {
		sched, err := chaos.Load(*chaosFile)
		if err != nil {
			return fail(err.Error())
		}
		label := *chaosWorker
		fmt.Fprintf(stderr, "warning: chaos fault injection armed (%d faults, worker label %q)\n",
			len(sched.Faults), label)
		middleware = func(next http.Handler) http.Handler {
			return chaos.NewInjector(sched, label, next)
		}
		// Point-triggered crashes fire inside the daemon, not the HTTP layer.
		crashAfterPoints = sched.PointCrash(label)
	}

	cfg := service.Config{
		Addr:               *addr,
		JobWorkers:         *jobWorkers,
		SimWorkers:         *simWorkers,
		QueueDepth:         *queue,
		MaxJobs:            *maxJobs,
		CacheDir:           *cacheDir,
		DrainTimeout:       *drain,
		MaxWait:            *maxWait,
		MaxCampaignStreams: *maxCampStreams,
		StoreDir:           *storeDir,
		QuotaRate:          *quotaRate,
		QuotaBurst:         *quotaBurst,
		CampaignHighWater:  *campHigh,
		CampaignLowWater:   *campLow,
		CrashAfterPoints:   crashAfterPoints,
		Fleet:              fleet,
		Middleware:         middleware,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(stdout, format+"\n", a...)
		},
	}
	if err := service.ListenAndServe(ctx, cfg); err != nil {
		fmt.Fprintln(stderr, "dspatchd:", err)
		return 1
	}
	return 0
}

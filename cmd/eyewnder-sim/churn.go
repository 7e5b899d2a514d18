package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"eyewnder/internal/churn"
	"eyewnder/internal/obs"
	"eyewnder/internal/vec"
)

// The churn harness: a seeded, deterministic population lifecycle —
// arrivals, permanent dropouts, mid-round darkness, re-registrations,
// stream reconnects — replayed against a real back-end, with every
// round's finalized counts byte-compared to a trace oracle. See
// internal/churn for the mechanics; this file is the CLI and the
// machine-readable summary CI consumes.
type churnConfig struct {
	users     int
	rounds    int
	seed      uint64
	campaign  uint32
	dataDir   string
	artifacts string
	scrape    string
}

// churnSummary is the final stdout line (single-line JSON), the
// machine-readable run result: CI double-runs the same seed and
// asserts the digests are identical, and jq-checks that every round
// either closed through the adjustment path or was skipped empty.
type churnSummary struct {
	Schema    string  `json:"schema"`
	Users     int     `json:"users"`
	Rounds    int     `json:"rounds"`
	Seed      uint64  `json:"seed"`
	Reports   int     `json:"reports"`
	Shares    int     `json:"shares"`
	Adjusted  int     `json:"adjusted_rounds"`
	Skipped   int     `json:"skipped_rounds"`
	Durable   bool    `json:"durable"`
	VecKernel string  `json:"vec_kernel"`
	MaxProcs  int     `json:"maxprocs"`
	Seconds   float64 `json:"seconds"`
	Digest    string  `json:"digest"`
	// Metrics holds the run's /metrics counter deltas when -scrape was
	// set: every _total/_count/_sum sample that advanced during the
	// run, keyed by its rendered Prometheus name. CI cross-checks
	// eyewnder_reports_accepted_total against Reports.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// runChurn generates the seeded trace, replays it, and prints one
// human line per round plus the JSON summary line.
func runChurn(cfg churnConfig) error {
	ccfg := churn.Config{
		Users:       cfg.users,
		Rounds:      cfg.rounds,
		Seed:        cfg.seed,
		Campaign:    cfg.campaign,
		DataDir:     cfg.dataDir,
		ArtifactDir: cfg.artifacts,
	}
	// With -scrape the harness owns a registry the replayed back-end
	// registers in, serves it on the admin endpoint during the run, and
	// folds the counter deltas into the summary line.
	var reg *obs.Registry
	var before map[string]float64
	if cfg.scrape != "" {
		reg = obs.New()
		ccfg.Metrics = reg
		admin, err := obs.ServeAdmin(cfg.scrape, obs.AdminOptions{Registry: reg})
		if err != nil {
			return fmt.Errorf("-scrape listen: %w", err)
		}
		defer admin.Close()
		fmt.Printf("churn: admin endpoint on %s\n", admin.Addr())
		before = reg.Snapshot()
	}
	fmt.Printf("churn: %d users × %d rounds, seed %d%s\n",
		cfg.users, cfg.rounds, cfg.seed, durabilityNote(cfg.dataDir))
	start := time.Now()
	res, err := churn.Run(ccfg, func(format string, args ...interface{}) {
		fmt.Printf("  "+format+"\n", args...)
	})
	if err != nil {
		// The partial summary still goes out: CI's failure path uploads
		// it next to the trace/diff artifacts.
		if res != nil {
			printChurnSummary(cfg, res, time.Since(start), reg, before)
		}
		return err
	}
	printChurnSummary(cfg, res, time.Since(start), reg, before)
	return nil
}

func printChurnSummary(cfg churnConfig, res *churn.Result, elapsed time.Duration, reg *obs.Registry, before map[string]float64) {
	sum := churnSummary{
		Schema:    "eyewnder-churn/v1",
		Users:     cfg.users,
		Rounds:    len(res.Rounds),
		Seed:      cfg.seed,
		Reports:   res.Reports,
		Shares:    res.Shares,
		Durable:   cfg.dataDir != "",
		VecKernel: vec.Active(),
		MaxProcs:  runtime.GOMAXPROCS(0),
		Seconds:   elapsed.Seconds(),
		Digest:    res.Digest,
	}
	for _, rr := range res.Rounds {
		if rr.Adjusted {
			sum.Adjusted++
		}
		if rr.Skipped {
			sum.Skipped++
		}
	}
	if reg != nil {
		sum.Metrics = metricsDelta(before, reg.Snapshot())
	}
	if line, err := json.Marshal(sum); err == nil {
		os.Stdout.Write(append(line, '\n'))
	}
}

// metricsDelta folds a run's counter movement for the summary line:
// every counter or histogram sample (_total, _count, _sum) that
// advanced between the two snapshots. Gauges are skipped — they
// describe state, not work done by the run.
func metricsDelta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range after {
		base := strings.SplitN(k, "{", 2)[0]
		if !strings.HasSuffix(base, "_total") &&
			!strings.HasSuffix(base, "_count") &&
			!strings.HasSuffix(base, "_sum") {
			continue
		}
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

func durabilityNote(dataDir string) string {
	if dataDir == "" {
		return ""
	}
	return ", durable WAL in " + dataDir
}

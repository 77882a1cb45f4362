package main

import (
	"flag"
	"fmt"
	"io"
	"testing"

	"github.com/dataspace/automed/internal/server"
)

// TestFlagsComeFromDefaultConfig: every tunable flag's default is the
// server.DefaultConfig() field it sets, so the daemon, the CI gate
// programs and the benchmark (all built from DefaultConfig) run the
// same configuration; and a parsed value lands in that field.
func TestFlagsComeFromDefaultConfig(t *testing.T) {
	def := server.DefaultConfig()
	tunables := map[string]any{
		"cache-bytes":           def.CacheBytes,
		"query-timeout":         def.QueryTimeout,
		"max-steps":             def.MaxSteps,
		"slow-query":            def.SlowQuery,
		"max-inflight":          def.MaxInflight,
		"max-queue":             def.MaxQueue,
		"breaker":               def.Breaker.Enabled,
		"source-timeout":        def.Breaker.SourceTimeout,
		"breaker-open-for":      def.Breaker.OpenFor,
		"require-fresh":         def.RequireFresh,
		"min-federated-sources": def.MinFederatedSources,
		"probe-interval":        def.ProbeInterval,
	}
	cfg := server.DefaultConfig()
	fs := flag.NewFlagSet("automedd", flag.ContinueOnError)
	registerFlags(fs, &cfg)
	for name, want := range tunables {
		f := fs.Lookup(name)
		if f == nil {
			t.Errorf("-%s is not registered", name)
			continue
		}
		if got := fmt.Sprint(want); f.DefValue != got {
			t.Errorf("-%s defaults to %s, DefaultConfig() says %s", name, f.DefValue, got)
		}
	}
	total := 0
	fs.VisitAll(func(*flag.Flag) { total++ })
	if total != 21 {
		t.Errorf("%d flags registered, want 21", total)
	}

	if err := fs.Parse([]string{"-max-inflight", "7", "-breaker-open-for", "3s"}); err != nil {
		t.Fatal(err)
	}
	if cfg.MaxInflight != 7 || cfg.Breaker.OpenFor.String() != "3s" {
		t.Errorf("parsed flags did not land in the config: max-inflight %d, breaker-open-for %s", cfg.MaxInflight, cfg.Breaker.OpenFor)
	}
}

// TestRemovedFlagsAreRejected: the width, streaming-window, page-size
// and trace-ring options, and the plan and result caches' entry counts,
// are gone, not silently ignored.
func TestRemovedFlagsAreRejected(t *testing.T) {
	for _, name := range []string{"eval-parallelism", "scan-buffer", "fetch-page-rows", "trace-ring", "plan-cache", "result-cache"} {
		cfg := server.DefaultConfig()
		fs := flag.NewFlagSet("automedd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		registerFlags(fs, &cfg)
		if err := fs.Parse([]string{"-" + name, "1"}); err == nil {
			t.Errorf("-%s is still accepted", name)
		}
	}
}

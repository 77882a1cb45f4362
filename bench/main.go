// Command bench is the benchmark of the dataspace daemon: four named
// workloads driven over loopback HTTP against the in-process daemon
// built from the shipped defaults, every response checked against an
// oracle. README.md says what is measured and why.
//
//	bash bench/run.sh -workload table1_warm -seed 1          one run, end-to-end metrics
//	bash bench/run.sh -workload table1_warm -seed 1 -trace 1 one traced run, per-layer metrics
//	bash bench/run.sh -all -out report.json                  every workload, both kinds
//	bash bench/run.sh -compare a.json b.json                 judge b against a by BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	o := options{sizes: full, warmup: 2 * time.Second, gaugeRead: 300 * time.Millisecond}
	flag.StringVar(&o.workload, "workload", "", "workload to run: table1_warm, hot_repeat, scan_large or payg_mixed")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 22, "length of the measurement window")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = the end-to-end metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans here (JSON lines)")
	flag.StringVar(&o.scratch, "scratch", ".bench_build/tmp", "directory for the files a workload creates")
	out := flag.String("out", "", "write the detailed report here (JSON)")
	all := flag.Bool("all", false, "run every workload, untraced then traced, each in its own process")
	compare := flag.Bool("compare", false, "compare two -all reports: -compare base.json new.json")
	spec := flag.String("spec", "BENCHMARK.json", "the benchmark definition (metric directions and bounds for -compare)")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare takes two report files")
		}
		return compareReports(*spec, flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return err
	}
	if *all {
		return runAll(o, *out)
	}
	var rep *report
	var err error
	if *trace != 0 {
		rep, err = traced(o)
	} else {
		rep, err = measure(o)
	}
	if err != nil {
		return err
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			return err
		}
	}
	for _, e := range rep.Errors {
		fmt.Fprintln(os.Stderr, "bench:", e)
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeJSON writes v, indented, to path, or to standard output if path
// is empty.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// allReport is what -all writes and -compare reads: for every
// workload, the untraced and the traced run in full.
type allReport struct {
	Machine   machine                 `json:"machine"`
	Seed      uint64                  `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Workloads map[string]*workloadRun `json:"workloads"`
}

type workloadRun struct {
	EndToEnd *report `json:"end_to_end"`
	PerLayer *report `json:"per_layer"`
}

// runAll re-executes this binary once per workload and kind, one after
// the other: a process each, so peak_rss_mb and warm caches never leak
// from one workload into the next.
func runAll(o options, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.scratch, "all-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	all := allReport{Machine: thisMachine(o.scratch), Seed: o.seed, Seconds: o.seconds, Workloads: make(map[string]*workloadRun)}
	child := func(workload string, trace int) (*report, error) {
		file := filepath.Join(dir, fmt.Sprintf("%s.%d.json", workload, trace))
		cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", fmt.Sprint(trace), "-scratch", o.scratch, "-out", file)
		cmd.Stderr = os.Stderr
		fmt.Fprintf(os.Stderr, "bench: %s (trace %d)\n", workload, trace)
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s (trace %d): %w", workload, trace, err)
		}
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		var rep report
		return &rep, json.Unmarshal(data, &rep)
	}
	for _, w := range workloads {
		run := &workloadRun{}
		if run.EndToEnd, err = child(w.name, 0); err != nil {
			return err
		}
		all.Workloads[w.name] = run
	}
	for _, w := range workloads {
		if all.Workloads[w.name].PerLayer, err = child(w.name, 1); err != nil {
			return err
		}
	}
	return writeJSON(out, all)
}

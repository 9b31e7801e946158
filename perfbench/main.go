// Command perfbench is the repository's benchmark: one closed-loop workload
// per run against the rcm library and an in-process rcmserve/rcmproxy fleet
// on loopback listeners, with every output checked against an independent
// recomputation. Run it from the repository root:
//
//	bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 25 --trace 0
//
// --trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
// prints its per-layer metrics from a separate traced run and writes the
// spans next to the run's result file. The last line of standard output is
// the result object; the lines before it describe the host and report
// every metric with its unit.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The workloads; BENCHMARK.json records why each was chosen.
const (
	orderEmbedded = "order-embedded"
	serveHit      = "serve-hit"
	serveMiss     = "serve-miss"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    int    // suite analog downscale factor
	commit   string // the git commit measured; empty outside a git checkout
	setups   int    // set-ups per run; setup_s is the median of their CPU times
	spec     string // BENCHMARK.json
	out      string // directory for the result and span files
	minOps   int    // minimum timed operations; whole rounds are added
}

// refShare is the length of a traced run's untraced reference phase, as a
// share of --seconds.
const refShare = 0.25

func main() {
	o := options{scale: 2, setups: 3, spec: "BENCHMARK.json", out: filepath.Join(".bench_build", "results"), minOps: 100}
	var traceN int
	flag.StringVar(&o.workload, "workload", "", "order-embedded | serve-hit | serve-miss")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: scrambles the analogs and fixes the request order")
	flag.Float64Var(&o.seconds, "seconds", 25, "length of the timed phase")
	flag.IntVar(&traceN, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&o.commit, "commit", "", "git commit of the checkout, recorded in the descriptor (run.sh passes it)")
	flag.Parse()
	o.trace = traceN == 1
	code, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string, trace bool) ([]metricSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark description: %w", err)
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if trace {
		return spec.PerLayer, nil
	}
	return spec.EndToEnd, nil
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// run executes one benchmark run and prints its report; the returned code
// is non-zero when the run failed or any output was incorrect.
func run(o options, stdout io.Writer) (int, error) {
	specs, err := loadSpec(o.spec, o.trace)
	if err != nil {
		return 2, err
	}
	nproc := runtime.NumCPU()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	// Set up several times; keep the last set-up for the timed phases.
	// setup_s is the median of the set-ups' process CPU times, which,
	// unlike their wall-clock times (also in the descriptor), do not swing
	// with the time the hypervisor withholds. Set-up runs on one goroutine
	// for the most part, so on a calm host the two agree within a few
	// per cent.
	var w workload
	var setups, setupCPU []float64
	for i := range o.setups {
		if w != nil {
			w.close()
		}
		t0, c0 := time.Now(), processCPU()
		if w, err = setup(o, nproc, tr); err != nil {
			return 2, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupCPU = append(setupCPU, (processCPU() - c0).Seconds())
		if i < o.setups-1 {
			runtime.GC()
		}
	}
	defer w.close()

	// A traced run first measures an untraced reference phase on the same
	// set-up, for the tracing overhead.
	d := time.Duration(o.seconds * float64(time.Second))
	var ref phase
	var next int64
	var c0, c1 fleetCounters
	sv, _ := w.(*serving)
	if o.trace {
		ref, next = timed(w, time.Duration(float64(d)*refShare), next, o.minOps/2)
		if sv != nil {
			c0 = sv.fl.counters()
		}
		tr.on.Store(true)
	}
	ph, _ := timed(w, d, next, o.minOps)

	m := map[string]float64{}
	if o.trace {
		if sv != nil {
			c1 = sv.fl.counters()
		}
		if err := traced(o, w, tr, ref, ph, c0, c1, m); err != nil {
			return 2, err
		}
	}

	all := append(append([]output(nil), ref.outs...), ph.outs...)
	v := check(w.inputs(), all, nproc)
	attempted := len(all)
	if !o.trace {
		ops := len(ph.outs)
		m["ops_per_s"] = ph.rate
		m["latency_p50_ms"] = ph.p50
		m["latency_p90_ms"] = ph.p90
		m["error_rate"] = float64(v.failed) / float64(attempted)
		m["success_rate"] = 1 - m["error_rate"]
		m["alloc_mb_per_op"] = float64(ph.alloc) / 1e6 / float64(ops)
		m["cpu_ms_per_op"] = ph.cpuMs
		m["profile_ratio"], m["bandwidth_ratio"] = quality(all)
		m["setup_s"] = median(setupCPU)
	}

	res := result{Correct: v.incorrect == 0, Attempted: attempted, Failed: v.failed, Metrics: map[string]value{}}
	units := map[string]string{}
	for _, s := range specs {
		x, ok := m[s.Name]
		if !ok {
			return 2, fmt.Errorf("metric %s of %s was not measured", s.Name, o.spec)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 2, fmt.Errorf("metric %s is %v", s.Name, x)
		}
		res.Metrics[s.Name] = value{x, s.Unit}
		units[s.Name] = s.Unit
	}
	// The report adds what the result object leaves out: error_rate, whose
	// complement success_rate is the gated metric (a gated metric must
	// never read zero).
	report := map[string]value{}
	for name, x := range m {
		switch u, ok := units[name]; {
		case ok:
			report[name] = value{x, u}
		case name == "error_rate":
			report[name] = value{x, "ratio"}
		default:
			return 2, fmt.Errorf("metric %s is not listed in %s", name, o.spec)
		}
	}
	desc := describe(o, nproc, ph, ref, setups, setupCPU)
	if v.firstProblem != "" {
		desc["first_problem"] = v.firstProblem
	}
	for _, line := range []any{map[string]any{"descriptor": desc}, map[string]any{"report": report}, res} {
		b, err := json.Marshal(line)
		if err != nil {
			return 2, err
		}
		fmt.Fprintf(stdout, "%s\n", b)
	}
	if err := save(o, tr, desc, res, report); err != nil {
		return 2, err
	}
	if !res.Correct {
		return 1, fmt.Errorf("%d incorrect outputs; first: %s", v.incorrect, v.firstProblem)
	}
	return 0, nil
}

// workload is one set-up workload instance.
type workload interface {
	inputs() []input
	// loop runs the closed loop for about d, ending on a whole request
	// round; first numbers its first request, and the number after its
	// last is returned.
	loop(d time.Duration, first int64) ([]output, int64)
	// roundLen is the number of requests in one round of the stream.
	roundLen() int
	close()
}

func (e *embedded) inputs() []input { return e.in }
func (e *embedded) close()          {}
func (s *serving) inputs() []input  { return s.in }
func (s *serving) close() {
	s.fl.close()
	s.hc.CloseIdleConnections()
}

// setup generates the inputs and, for the serving workloads, encodes the
// bodies, starts the fleet and warms the replica caches.
func setup(o options, nproc int, tr *tracer) (workload, error) {
	switch o.workload {
	case orderEmbedded:
		in, err := makeInputs(o.scale, o.seed, false)
		if err != nil {
			return nil, err
		}
		return newEmbedded(o.seed, in, nproc, tr), nil
	case serveHit, serveMiss:
		in, err := makeInputs(o.scale, o.seed, true)
		if err != nil {
			return nil, err
		}
		miss := o.workload == serveMiss
		cache := int64(0) // the service default
		if miss {
			cache = missCacheBytes
		}
		fl, err := startFleet(cache, tr)
		if err != nil {
			return nil, err
		}
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConnsPerHost = nproc
		s := &serving{seed: o.seed, miss: miss, in: in, fl: fl, clients: nproc, hc: &http.Client{Transport: t}, tr: tr}
		if err := s.warm(); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", o.workload, orderEmbedded, serveHit, serveMiss)
}

// phase is one timed closed-loop phase.
type phase struct {
	outs []output
	roundStats
	alloc uint64  // bytes allocated by the whole process during the phase
	steal float64 // share of the host's CPU time its hypervisor withheld
}

// timed runs w for d, then whole further rounds until minOps operations
// have completed, so p90 keeps at least ten samples beyond it.
func timed(w workload, d time.Duration, first int64, minOps int) (phase, int64) {
	var ph phase
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	steal0, total0 := cpuTimes()
	cpu0 := processCPU()
	t0 := time.Now()
	next := first
	for len(ph.outs) < max(minOps, 1) {
		var outs []output
		outs, next = w.loop(d, next)
		ph.outs = append(ph.outs, outs...)
		d = 0
	}
	ph.roundStats = perRound(ph.outs, t0, cpu0, w.roundLen(), minOps)
	if steal1, total1 := cpuTimes(); total1 > total0 {
		ph.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	runtime.ReadMemStats(&ms1)
	ph.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	return ph, next
}

// cpuTimes reads the host's summed CPU counters (user through steal) from
// /proc/stat; steal is time the hypervisor gave this machine's virtual CPUs
// to someone else, one source of run-to-run spread on a shared host.
func cpuTimes() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// processCPU is the CPU time the process has used. The kernel leaves time
// stolen by the hypervisor out of it, so unlike wall-clock figures it does
// not swing with the load of the host's other tenants.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// describe is the host and configuration descriptor of a run.
func describe(o options, nproc int, ph, ref phase, setups, setupCPU []float64) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	src := sourceDigest()
	commit := o.commit
	if commit == "" {
		commit = "sha256:" + src // not a git checkout: the sources name the code
	}
	d := map[string]any{
		"workload":            o.workload,
		"seed":                o.seed,
		"seconds":             o.seconds,
		"trace":               o.trace,
		"scale":               o.scale,
		"cpu_model":           cpu,
		"nproc":               nproc,
		"gomaxprocs":          runtime.GOMAXPROCS(0),
		"go_version":          runtime.Version(),
		"commit":              commit,
		"source_sha256":       src,
		"samples":             len(ph.outs),
		"rounds":              ph.rounds,
		"round_ops_per_s":     ph.rates,
		"round_cpu_ms_per_op": ph.cpus,
		"latency_windows":     ph.windows,
		"window_p50_ms":       ph.p50s,
		"window_p90_ms":       ph.p90s,
		"percentile_basis":    fmt.Sprintf("median over %d windows of whole rounds, each of at least %d of the timed phase's %d operations, of each window's nearest-rank percentile of its per-operation latencies; ops_per_s and cpu_ms_per_op are medians over the phase's %d rounds", ph.windows, min(o.minOps, len(ph.outs)), len(ph.outs), ph.rounds),
		"setup_samples_s":     setups,
		"setup_cpu_samples_s": setupCPU,
		"host_steal_share":    ph.steal,
	}
	if o.workload != orderEmbedded {
		d["clients"] = nproc
		d["replicas"] = replicas
	}
	if o.trace {
		d["untraced_reference_samples"] = len(ref.outs)
	}
	return d
}

// sourceDigest hashes the Go sources and module files under the working
// directory, which identifies the code measured, also outside a git checkout.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != "." && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if e.IsDir() || !(strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// save writes the run's result next to its spans in the output directory.
func save(o options, tr *tracer, desc map[string]any, res result, report map[string]value) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", o.out, err)
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, map[bool]int{false: 0, true: 1}[o.trace]))
	b, err := json.MarshalIndent(map[string]any{"descriptor": desc, "report": report, "result": res}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing the result: %w", err)
	}
	if tr == nil {
		return nil
	}
	if err := writeSpans(base+".spans.jsonl", tr.spans); err != nil {
		return errors.Join(errors.New("writing the spans"), err)
	}
	return nil
}

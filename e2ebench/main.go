// Command e2ebench is the repository's end-to-end benchmark. It builds
// cmd/fedserver, launches it in the deployment shape (CAL-S, 3 silos,
// protocol mode over the loopback TCP mux mesh, a 4096-comparison prepool,
// the default result cache), drives it over HTTP with at most two
// connections, checks every answer against plaintext Dijkstra, and prints
// every metric by name with its unit. With -trace 1 it also replays the same
// requests in-process through the library's public API and splits their time
// across layers. See README.md for the workloads and metrics.
//
//	bash e2ebench/run.sh --workload route-read --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	fedroad "repro"
	"repro/internal/graph"
)

type options struct {
	root, out string
	workload  string
	seed      uint64
	seconds   int
	trace     bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.root, "root", ".", "repository root holding cmd/fedserver")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for binaries, server logs, traces and reports")
	flag.StringVar(&o.workload, "workload", "", "route-read or route-hot")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed issues the same requests in the same order")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics, adding an in-process traced replay")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: -seconds must be at least 1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostInfo records where and how a result was measured.
type hostInfo struct {
	NumCPU     int `json:"nproc"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// ClientProcs is the benchmark's GOMAXPROCS while it drives fedserver.
	ClientProcs int    `json:"http_client_gomaxprocs"`
	GoVersion   string `json:"go_version"`
	CPUModel    string `json:"cpu_model"`
	Commit      string `json:"git_commit"`
}

func host(root string) hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), ClientProcs: clientProcs, GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown (not a git checkout)"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Dir = root
		if b, err := cmd.Output(); err == nil {
			h.Commit = strings.TrimSpace(string(b))
		}
	}
	return h
}

// report is the full record of a run, printed on the line before the result
// and saved under <out>/reports.
type report struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	// TracedWindowS is the replay's timed window, shorter than Seconds
	// only when the run would otherwise overrun its time limit.
	TracedWindowS float64            `json:"traced_window_s,omitempty"`
	Host          hostInfo           `json:"host"`
	Flags         []string           `json:"fedserver_flags"`
	SetupS        []float64          `json:"setup_s_each"`
	Timings       map[string]summary `json:"timings_ms"`
	Invariants    []invariant        `json:"invariants"`
	Errors        []string           `json:"oracle_errors,omitempty"`
	Metrics       map[string]metric  `json:"metrics"`
}

type invariant struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Note string `json:"note"`
}

// runLimit is how long one run may take before the traced replay shortens
// its window; the benchmark contract allows 180 s.
const runLimit = 165 * time.Second

func run(ctx context.Context, o options) (result, error) {
	deadline := time.Now().Add(runLimit)
	wl, err := findWorkload(o.workload)
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(filepath.Join(o.out, "reports"), 0o755); err != nil {
		return result{}, err
	}
	bin, err := buildServer(o.root, o.out)
	if err != nil {
		return result{}, err
	}
	g, w0, _ := graph.GenerateDataset(datasetName)
	siloW := fedroad.SimulateCongestion(w0, silos, fedroad.Moderate, serverSeed+1)
	p := makePlan(wl, o.seed, o.seconds, g, w0, siloW)

	hr, err := runHTTP(ctx, o, wl, bin, p)
	if err != nil {
		return result{}, err
	}
	rep := &report{Workload: wl.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Host: host(o.root),
		Flags: hr.args, Timings: map[string]summary{}, Metrics: map[string]metric{}}
	for _, d := range hr.setups {
		rep.SetupS = append(rep.SetupS, d.Seconds())
	}
	a := analyze(wl, o, p, hr, g, siloW, rep)
	if o.trace {
		tr, err := runTraced(ctx, o, wl, p, deadline)
		if err != nil {
			return result{}, fmt.Errorf("traced replay: %w", err)
		}
		tr.report(rep)
	}
	res := result{Correct: len(rep.Errors) == 0, Attempted: a.attempted, Failed: a.failed, Metrics: map[string]metric{}}
	for _, inv := range rep.Invariants {
		if !inv.OK {
			res.Correct = false
		}
	}
	names := endToEnd
	if o.trace {
		names = perLayer
	}
	for _, n := range names {
		m, ok := rep.Metrics[n]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", n)
		}
		res.Metrics[n] = m
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return result{}, err
	}
	fmt.Println(string(b))
	name := fmt.Sprintf("%s-seed%d-trace%v.json", wl.name, o.seed, o.trace)
	if err := os.WriteFile(filepath.Join(o.out, "reports", name), b, 0o644); err != nil {
		return result{}, err
	}
	return res, nil
}

// httpRun is what the untraced HTTP run observed.
type httpRun struct {
	args        []string
	setups      []time.Duration
	samples     []sample
	bodies      map[uint64][]byte
	windowStart time.Time
	windowEnd   time.Time
	cpuMarks    []time.Duration // server CPU time at each sub-window boundary
	rssMB       float64
	mBuild      map[string]float64 // /metrics right after set-up
	mW0, mW1    map[string]float64 // around the timed window
	mEnd        map[string]float64 // after the probe
	shortcuts   float64
}

// clientProcs is the GOMAXPROCS of the HTTP client: the load generator keeps
// to one core so that it does not compete with fedserver for every core of
// a small host.
const clientProcs = 1

func runHTTP(ctx context.Context, o options, wl workload, bin string, p *plan) (*httpRun, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(clientProcs))
	hr := &httpRun{}
	var srv *fedserver
	for i := 0; i < wl.setupReps; i++ {
		args := append(append([]string(nil), baseFlags...), wl.flags...)
		logPath := filepath.Join(o.out, fmt.Sprintf("fedserver-%s-%d.log", wl.name, i))
		s, err := launch(ctx, bin, logPath, args)
		if err != nil {
			return nil, err
		}
		hr.setups = append(hr.setups, s.setup)
		if i < wl.setupReps-1 {
			s.stop()
			continue
		}
		srv = s
		hr.args = s.args
	}
	defer srv.stop()
	c := newClient(srv.base, readers)
	defer c.close()

	var err error
	if hr.mBuild, err = scrape(c.http, srv.base); err != nil {
		return nil, err
	}
	var stats struct {
		Shortcuts float64 `json:"shortcuts"`
	}
	if err := getJSON(c, "/stats", &stats); err != nil {
		return nil, err
	}
	hr.shortcuts = stats.Shortcuts

	src := p.source()
	if wl.hot {
		touchAll(readers, p.hotSet, c.httpRead(phaseWarm))
	}
	if err := closedLoop(ctx, readers, time.Now().Add(wl.warm), src, c.httpRead(phaseWarm)); err != nil {
		return nil, err
	}

	if hr.mW0, err = scrape(c.http, srv.base); err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	hr.windowStart = time.Now()
	hr.windowEnd = hr.windowStart.Add(time.Duration(o.seconds) * time.Second)
	cpuc := make(chan []time.Duration, 1)
	go func() { cpuc <- srv.cpuMarks(ctx, cpu0, hr.windowStart, hr.windowEnd, subWindows) }()
	if err := closedLoop(ctx, readers, hr.windowEnd, src, c.httpRead(phaseWindow)); err != nil {
		return nil, err
	}
	if hr.cpuMarks = <-cpuc; len(hr.cpuMarks) != subWindows+1 {
		return nil, fmt.Errorf("read fedserver CPU time during the window")
	}
	if hr.mW1, err = scrape(c.http, srv.base); err != nil {
		return nil, err
	}

	for j := range p.batches {
		c.postBatch(phaseProbe, p, j)
	}
	if hr.mEnd, err = scrape(c.http, srv.base); err != nil {
		return nil, err
	}
	if hr.rssMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	hr.samples, hr.bodies = c.samples, c.bodies
	c.mu.Unlock()
	return hr, nil
}

func getJSON(c *client, path string, v any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

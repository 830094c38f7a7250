package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"regalloc/internal/alloc"
	"regalloc/internal/cachekey"
	"regalloc/internal/color"
	"regalloc/internal/fuzzgen"
	"regalloc/internal/graphgen"
	"regalloc/internal/workloads"
)

// clients is the number of closed-loop connections: callers such as
// build tools wait for each reply before sending the next request.
const clients = 2

// body is one allocation request and what a correct reply says.
type body struct {
	json      []byte   // the /v1/alloc request
	source    string   // its payload, for in-process keying
	heuristic string   // "" is the service default (briggs)
	graph     bool     // an .ig graph rather than a source program
	units     []string // src: the unit names the reply must list, sorted
	nodes     int      // ig: the node count the reply must report
}

// roundSize is how many requests make one operation of a service
// workload: one pass over service-repeat's 20 bodies, or 20 fresh
// service-unique bodies, sent one after another on one connection.
// A round's time is stable where a single request's is not: the mix
// of cheap and expensive bodies is the same in every round.
const roundSize = 20

// bodySet yields a workload's request bodies. Rounds 0 to warmups-1
// are sent in setup; timed rounds follow.
type bodySet interface {
	// round returns the bodies of round k, the same for the same seed
	// and k.
	round(k int) []*body
}

func newSourceBody(src, heuristic string, units []string) *body {
	req := map[string]any{"source": src}
	if heuristic != "" {
		req["heuristic"] = heuristic
	}
	b, _ := json.Marshal(req) // a map of strings always encodes
	u := append([]string(nil), units...)
	sort.Strings(u)
	return &body{json: b, source: src, heuristic: heuristic, units: u}
}

func newGraphBody(n int, p float64, seed uint64) *body {
	g, costs := graphgen.Random(n, p, seed)
	var sb strings.Builder
	_ = graphgen.WriteGraph(&sb, g, costs) // a strings.Builder never fails
	b, _ := json.Marshal(map[string]any{"source": sb.String()})
	return &body{json: b, source: sb.String(), graph: true, nodes: n}
}

// mix is splitmix64: a well-spread deterministic hash of (seed, i).
func mix(seed int64, i int) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// repeatSet is service-repeat's 20 fixed bodies: the six suite
// programs under the default heuristic and chaitin, three .ig graphs
// and five fuzzgen programs. Each round sends all of them in a seeded
// order, so the first warm-up round fills the cache and every timed
// request is a hit.
type repeatSet struct {
	seed   int64
	bodies []*body
}

func repeatBodies(seed int64) bodySet {
	s := &repeatSet{seed: seed}
	for _, w := range append(workloads.All(), workloads.Quicksort()) {
		s.bodies = append(s.bodies, newSourceBody(w.Source, "", w.Routines), newSourceBody(w.Source, "chaitin", w.Routines))
	}
	for i := uint64(1); i <= 3; i++ {
		s.bodies = append(s.bodies, newGraphBody(60+40*int(i), 0.08, i))
	}
	for i := uint64(1); i <= 5; i++ {
		s.bodies = append(s.bodies, newSourceBody(fuzzgen.Generate(i, fuzzgen.Config{}), "", []string{"FZ"}))
	}
	return s
}

func (s *repeatSet) round(k int) []*body {
	out := make([]*body, len(s.bodies))
	for i, j := range rand.New(rand.NewSource(int64(mix(s.seed, k)))).Perm(len(s.bodies)) {
		out[i] = s.bodies[j]
	}
	return out
}

// uniqueSet is service-unique's endless stream of distinct bodies:
// fuzzgen programs seeded from (seed, request) under briggs, chaitin
// and ssa in rotation, with every fourth request a fresh random graph.
type uniqueSet struct{ seed int64 }

func uniqueBodies(seed int64) bodySet { return uniqueSet{seed} }

var uniqueHeuristics = []string{"briggs", "chaitin", "ssa"}

// body returns request i of the stream.
func (s uniqueSet) body(i int) *body {
	h := mix(s.seed, i)
	if i%4 == 3 {
		return newGraphBody(80+int(h%80), 0.08, h)
	}
	return newSourceBody(fuzzgen.Generate(h, fuzzgen.Config{}), uniqueHeuristics[i%len(uniqueHeuristics)], []string{"FZ"})
}

func (s uniqueSet) round(k int) []*body {
	out := make([]*body, roundSize)
	for j := range out {
		out[j] = s.body(k*roundSize + j)
	}
	return out
}

// serviceSession drives one allocd process over HTTP.
type serviceSession struct {
	bodies bodySet
	proc   *exec.Cmd
	exited chan struct{} // closed once proc has been reaped
	stderr *bytes.Buffer
	base   string // http://127.0.0.1:PORT
	client *http.Client
	next   int  // the next round to send
	closed bool // allocd has been stopped
}

func openService(bodies func(seed int64) bodySet) func(config) (session, error) {
	return func(cfg config) (session, error) {
		s := &serviceSession{
			bodies: bodies(cfg.seed),
			client: &http.Client{
				Timeout:   60 * time.Second,
				Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients},
			},
		}
		if err := s.start(cfg.allocd); err != nil {
			return nil, err
		}
		for ; s.next < warmups; s.next++ {
			for _, b := range s.bodies.round(s.next) {
				if _, _, err := s.send(b); err != nil {
					s.close()
					return nil, fmt.Errorf("warm-up: %w", err)
				}
			}
		}
		return s, nil
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// start launches allocd and waits until /readyz answers 200.
func (s *serviceSession) start(path string) error {
	if path == "" {
		return errors.New("the service workloads need -allocd")
	}
	port, err := freePort()
	if err != nil {
		return fmt.Errorf("picking a port: %w", err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	s.base = "http://" + addr
	s.stderr = new(bytes.Buffer)
	s.proc = exec.Command(path, "-addr", addr)
	s.proc.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", clients))
	s.proc.Stderr = s.stderr
	if err := s.proc.Start(); err != nil {
		return fmt.Errorf("starting allocd: %w", err)
	}
	s.exited = make(chan struct{})
	go func() {
		s.proc.Wait() // the exit status is read from ProcessState in close
		close(s.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("allocd exited during start: %s", strings.TrimSpace(s.stderr.String()))
		default:
		}
		if resp, err := s.client.Get(s.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.close()
	return errors.New("allocd not ready after 30s")
}

// close stops allocd with SIGTERM (it drains, then exits 0) and waits
// for it. Closing twice is harmless.
func (s *serviceSession) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.client.CloseIdleConnections()
	var err error
	if sigErr := s.proc.Process.Signal(syscall.SIGTERM); sigErr != nil {
		err = fmt.Errorf("stopping allocd: %w", sigErr)
	}
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		s.proc.Process.Kill()
		<-s.exited
		err = errors.New("allocd did not drain within 15s; killed")
	}
	if st := s.proc.ProcessState; err == nil && !st.Success() {
		err = fmt.Errorf("allocd exited with %v: %s", st, strings.TrimSpace(s.stderr.String()))
	}
	return err
}

// send posts one request and checks the reply. It returns the round
// trip, which ends when the reply is read and before it is checked,
// and the reply's X-Cache outcome.
func (s *serviceSession) send(b *body) (time.Duration, string, error) {
	t0 := time.Now()
	resp, err := s.client.Post(s.base+"/v1/alloc", "application/json", bytes.NewReader(b.json))
	if err != nil {
		return time.Since(t0), "", fmt.Errorf("transport: %w", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return d, "", fmt.Errorf("reading reply: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		return d, "", fmt.Errorf("status %d: %.200s", resp.StatusCode, data)
	}
	if err := b.check(data); err != nil {
		return d, "", err
	}
	return d, resp.Header.Get("X-Cache"), nil
}

// check reports whether a 200 reply parses and describes this body:
// the expected units for a program, the expected node count for a
// graph.
func (b *body) check(data []byte) error {
	var r struct {
		Input string `json:"input"`
		Nodes int    `json:"nodes"`
		Units []struct {
			Unit string `json:"unit"`
		} `json:"units"`
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("reply does not parse: %w", err)
	}
	if b.graph {
		if r.Input != "ig" || r.Nodes != b.nodes {
			return fmt.Errorf("graph reply: input %q with %d nodes, want ig with %d", r.Input, r.Nodes, b.nodes)
		}
		return nil
	}
	got := make([]string, len(r.Units))
	for i, u := range r.Units {
		got[i] = u.Unit
	}
	sort.Strings(got)
	if r.Input != "src" || strings.Join(got, ",") != strings.Join(b.units, ",") {
		return fmt.Errorf("source reply: input %q with units %v, want src with %v", r.Input, got, b.units)
	}
	return nil
}

// healthEvery is how often, in requests, a traced client also times a
// /healthz round trip: the HTTP floor under every request.
const healthEvery = 8

// exchange is one observed round trip.
type exchange struct {
	path       string // "/v1/alloc" or "/healthz"
	start, end time.Time
	cache      string
	err        error
}

// measure runs the closed loop. The clients send their rounds in
// lockstep: each sends its round, one request as soon as the previous
// reply is checked; once both rounds are done the benchmark times its
// calibration work, with no request in flight, and the next rounds
// start. An operation is one complete round; its time is the sum of
// its round trips. allocd's CPU time and heap allocation are read
// before and after and shared evenly over the rounds. On the traced
// pass the second half of the time keys the same bodies in-process
// instead.
func (s *serviceSession) measure(until time.Time, rec *recorder) *tally {
	t := newTally()
	before, err := s.stats()
	if err != nil {
		t.fail(err)
		return t
	}
	start := time.Now()
	httpUntil := until
	if rec != nil {
		httpUntil = start.Add(until.Sub(start) / 2)
	}
	var xs []exchange
	first := s.next
	for ; time.Now().Before(httpUntil); s.next += clients {
		rounds := make([][]*body, clients)
		for c := range rounds {
			rounds[c] = s.bodies.round(s.next + c)
		}
		per := make([][]exchange, clients)
		var wg sync.WaitGroup
		for c := range rounds {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for j, b := range rounds[c] {
					t0 := time.Now()
					d, cache, err := s.send(b)
					per[c] = append(per[c], exchange{path: "/v1/alloc", start: t0, end: t0.Add(d), cache: cache, err: err})
					if rec != nil && j%healthEvery == 0 {
						per[c] = append(per[c], s.health())
					}
				}
			}(c)
		}
		wg.Wait()
		t.cal.run()
		cal := t.cal.around()
		for _, round := range per {
			var sum time.Duration
			ok := true
			for _, x := range round {
				if x.path == "/v1/alloc" {
					sum += x.end.Sub(x.start)
					ok = ok && x.err == nil
				}
			}
			if ok {
				t.opMS = append(t.opMS, ms(sum))
				t.opRel = append(t.opRel, ms(sum)/cal)
			}
			xs = append(xs, round...)
		}
	}
	t.wall = time.Since(start)
	if after, err := s.stats(); err != nil {
		t.fail(err)
	} else {
		rounds := float64(s.next - first)
		cpu := ms(after.cpu-before.cpu) / rounds
		t.cpuMS = []float64{cpu}
		t.cpuRel = []float64{cpu / t.cal.mean()}
		t.allocMB = []float64{float64(after.alloc-before.alloc) / (1 << 20) / rounds}
		t.peakRSSMB = after.peakRSSMB
	}

	for _, x := range xs {
		if rec != nil {
			rec.nextTrace()
			id := rec.add(strings.TrimPrefix(x.path, "/"), x.start, x.end, -1)
			rec.set(id, "cache", x.cache)
		}
		if x.path != "/v1/alloc" {
			continue
		}
		t.attempted++
		if x.err != nil {
			t.fail(x.err)
			continue
		}
		t.requestMS = append(t.requestMS, ms(x.end.Sub(x.start)))
	}
	if rec != nil {
		for k := first; time.Now().Before(until); k++ {
			for _, b := range s.bodies.round(k) {
				if err := keyBody(b, rec); err != nil {
					t.fail(err)
				}
			}
		}
	}
	return t
}

// serverStats is what allocd has used since it started.
type serverStats struct {
	cpu       time.Duration // user+system
	alloc     uint64        // heap bytes allocated
	peakRSSMB float64       // peak resident set (VmHWM)
}

func (s *serviceSession) stats() (serverStats, error) {
	var st serverStats
	var err error
	if st.alloc, err = s.allocated(); err != nil {
		return st, err
	}
	pid := s.proc.Process.Pid
	if st.cpu, err = procCPU(pid); err != nil {
		return st, fmt.Errorf("reading allocd's CPU time: %w", err)
	}
	if st.peakRSSMB, err = procPeakRSSMB(pid); err != nil {
		return st, fmt.Errorf("reading allocd's peak RSS: %w", err)
	}
	return st, nil
}

// userHZ is the unit of the CPU times in /proc/PID/stat: the kernel's
// USER_HZ, 100 on every Linux architecture Go supports.
const userHZ = 100

// procCPU reads a process's user+system CPU time from /proc/PID/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Field 2, the command name, is parenthesized and may hold spaces;
	// the fields after it start at field 3, and utime and stime are
	// fields 14 and 15.
	var f []string
	if i := bytes.LastIndexByte(b, ')'); i >= 0 {
		f = strings.Fields(string(b[i+1:]))
	}
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / userHZ, nil
}

// procPeakRSSMB reads a process's peak resident set from the VmHWM
// line of /proc/PID/status.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM line", pid)
}

// allocated reads the heap allocd has allocated so far from the
// runtime statistics its heap profile endpoint prints.
func (s *serviceSession) allocated() (uint64, error) {
	resp, err := s.client.Get(s.base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, fmt.Errorf("reading allocd's heap statistics: %w", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			return strconv.ParseUint(v, 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("reading allocd's heap statistics: %w", err)
	}
	return 0, errors.New("allocd's heap profile has no TotalAlloc line")
}

// health times one /healthz round trip.
func (s *serviceSession) health() exchange {
	x := exchange{path: "/healthz", start: time.Now()}
	resp, err := s.client.Get(s.base + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	x.end, x.err = time.Now(), err
	return x
}

// keyBody does in-process what allocd does for a request before its
// cache lookup: compile the program (or parse the graph) and derive
// the content-addressed key.
func keyBody(b *body, rec *recorder) error {
	rec.nextTrace()
	root := rec.begin("keying", -1)
	defer rec.end(root)
	if b.graph {
		id := rec.begin("cachekey", root)
		defer rec.end(id)
		g, costs, err := graphgen.ReadGraph(strings.NewReader(b.source))
		if err != nil {
			return fmt.Errorf("keying: %w", err)
		}
		cachekey.Graph(g, costs)
		return nil
	}
	prog, err := frontEnd(b.source, rec, root)
	if err != nil {
		return fmt.Errorf("keying: %w", err)
	}
	opt := alloc.DefaultOptions()
	if b.heuristic != "" {
		if opt.Heuristic, err = color.ParseHeuristic(b.heuristic); err != nil {
			return fmt.Errorf("keying: %w", err)
		}
	}
	id := rec.begin("cachekey", root)
	cachekey.Program(prog.Funcs)
	cachekey.Options(opt)
	rec.end(id)
	return nil
}

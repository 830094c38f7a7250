package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"regalloc"
	"regalloc/internal/cachekey"
	"regalloc/internal/color"
	"regalloc/internal/graphgen"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
	"regalloc/internal/obs"
	"regalloc/internal/obs/promtext"
	"regalloc/internal/pcolor"
	"regalloc/internal/portfolio"
	"regalloc/internal/reqtrace"
	"regalloc/internal/rescache"
)

// Default result-cache bounds: generous for the service's small JSON
// bodies, tight enough that a runaway corpus cannot eat the host.
const (
	defaultCacheEntries = 1024
	defaultCacheBytes   = 64 << 20
)

// server is the allocd state: the run registry and live-event
// aggregate behind /metrics, the content-addressed result cache, and
// the admission semaphore bounding concurrent allocation work.
// Handlers are safe for concurrent use.
type server struct {
	reg      *obs.Registry
	metrics  *obs.MetricsSink
	cache    *rescache.Cache // nil: result caching disabled
	sem      chan struct{}   // admission: one slot per in-flight request
	recorder *reqtrace.Recorder
	reqLat   *obs.ExemplarHistogram // request latency with trace exemplars
	access   *accessLog             // nil: access logging disabled
	ready    atomic.Bool
	started  time.Time

	// allocTimeout, when > 0, caps each allocation request's
	// wall-clock (queueing for admission included). Expiry while the
	// service is healthy answers 429 Retry-After — the work would
	// succeed on a quieter instant — while drain and client
	// cancellation stay 503.
	allocTimeout time.Duration
}

func newServer(maxInflight int) *server {
	if maxInflight < 1 {
		maxInflight = 1
	}
	s := &server{
		reg:      obs.NewRegistry(),
		metrics:  obs.NewMetricsSink(),
		cache:    rescache.New(defaultCacheEntries, defaultCacheBytes),
		sem:      make(chan struct{}, maxInflight),
		recorder: reqtrace.NewRecorder(recorderSlowCap, recorderErrCap),
		reqLat:   new(obs.ExemplarHistogram),
		started:  time.Now(),
	}
	s.ready.Store(true)
	return s
}

// routes mounts the full handler set on a fresh mux. pprof is
// mounted explicitly (rather than via the package's DefaultServeMux
// side effect) so the service owns every route it serves.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/alloc", s.traced(s.handleAlloc))
	mux.HandleFunc("/v1/alloc/batch", s.traced(s.handleBatch))
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/debug/requests", s.handleDebugRequests)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// beginShutdown flips readiness off so load balancers drain the
// instance before Shutdown closes the listener.
func (s *server) beginShutdown() { s.ready.Store(false) }

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetrics renders every metric family. The snapshots are taken
// one after the other, not atomically, so a single scrape can catch a
// run in one family but not yet another; the skew is one in-flight
// request and self-corrects by the next scrape.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := promtext.Write(w, s.reg.Snapshot()); err != nil {
		return // client went away; nothing sensible to do
	}
	if err := promtext.WriteMetrics(w, s.metrics.Snapshot()); err != nil {
		return
	}
	if s.cache != nil {
		if err := promtext.WriteCache(w, s.cache.Stats()); err != nil {
			return
		}
	}
	if err := promtext.WriteExemplarHistogram(w, "allocd_request_duration_seconds",
		"Wall time of one allocation request, with per-bucket trace exemplars.", s.reqLat); err != nil {
		return
	}
	ready := 0
	if s.ready.Load() {
		ready = 1
	}
	fmt.Fprintf(w, "# HELP allocd_inflight_requests Allocation requests currently admitted.\n# TYPE allocd_inflight_requests gauge\nallocd_inflight_requests %d\n", len(s.sem))
	fmt.Fprintf(w, "# HELP allocd_ready Whether the instance is accepting traffic.\n# TYPE allocd_ready gauge\nallocd_ready %d\n", ready)
	fmt.Fprintf(w, "# HELP allocd_uptime_seconds Seconds since the service started.\n# TYPE allocd_uptime_seconds gauge\nallocd_uptime_seconds %d\n", int64(time.Since(s.started).Seconds()))
}

// maxBodyBytes bounds the request body: mini-FORTRAN sources and .ig
// graphs are small; anything larger is a mistake or abuse.
const maxBodyBytes = 8 << 20

// igFirstLine recognizes a .ig graph body by its mandatory leading
// node-count directive.
var igFirstLine = regexp.MustCompile(`^n\s+\d+`)

// readBody drains the request body under the size cap, classifying
// failures: only an actual overflow is 413; other read errors
// (disconnects, transport faults) are the client's 400.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, *apiError) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, failErr(http.StatusRequestEntityTooLarge, codeBodyTooLarge, "reading body", err)
		}
		return nil, failErr(http.StatusBadRequest, codeBadBody, "reading body", err)
	}
	return body, nil
}

// readAllocRequest reads and decodes one /v1/alloc request and
// rejects an empty payload.
func readAllocRequest(w http.ResponseWriter, r *http.Request) (*AllocRequest, *apiError) {
	body, fail := readBody(w, r)
	if fail != nil {
		return nil, fail
	}
	req, fail := decodeAllocRequest(r, body)
	if fail != nil {
		return nil, fail
	}
	if strings.TrimSpace(req.Source) == "" {
		return nil, failf(http.StatusBadRequest, codeEmptyBody, "empty source: POST a mini-FORTRAN source or .ig graph")
	}
	return req, nil
}

// requestContext layers the per-request -alloc-timeout deadline under
// the client's own context, so whichever expires first cancels the
// work.
func (s *server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.allocTimeout > 0 {
		return context.WithTimeout(r.Context(), s.allocTimeout)
	}
	return r.Context(), func() {}
}

// admit takes one admission slot, or classifies the failure: a
// deadline that fires while the service is healthy is backpressure
// (429 Retry-After — the same request succeeds on a quieter
// instant), drain and client cancellation are 503.
func (s *server) admit(ctx context.Context) (release func(), fail *apiError) {
	rt, parent := reqtrace.FromContext(ctx)
	t0 := time.Now()
	defer func() { recordStep(rt, parent, "admit", t0, fail) }()
	// Check the deadline before the select: with an already-expired
	// context both select arms are ready and the choice would be
	// random, turning the -alloc-timeout answer into a coin flip.
	if err := ctx.Err(); err != nil {
		return nil, s.ctxFailure(ctx, "queued for admission", codeAdmissionTimeout)
	}
	select {
	case s.sem <- struct{}{}:
		return sync.OnceFunc(func() { <-s.sem }), nil
	case <-ctx.Done():
		return nil, s.ctxFailure(ctx, "queued for admission", codeAdmissionTimeout)
	}
}

// ctxFailure maps a context failure to its status: 503 while
// draining or for a client cancellation, 429 for a deadline on a
// healthy instance. timeoutCode distinguishes where the deadline hit
// (admission queue vs. the allocation itself).
func (s *server) ctxFailure(ctx context.Context, what, timeoutCode string) *apiError {
	err := ctx.Err()
	if s.ready.Load() && errors.Is(err, context.DeadlineExceeded) {
		return failErr(http.StatusTooManyRequests, timeoutCode, what, err)
	}
	return failErr(http.StatusServiceUnavailable, codeUnavailable, what, err)
}

// handleAlloc is POST /v1/alloc: decode (JSON body or legacy query
// form), admit, then serve from the result cache or run the
// allocation. Portfolio races bypass the cache — they are
// wall-clock-dependent by design.
func (s *server) handleAlloc(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, failf(http.StatusMethodNotAllowed, codeMethodNotAllowed, "POST a mini-FORTRAN source, .ig graph, or JSON request"))
		return
	}
	rt, root := reqtrace.FromContext(r.Context())
	td := time.Now()
	req, fail := readAllocRequest(w, r)
	recordStep(rt, root, "decode", td, fail)
	if fail != nil {
		writeError(w, fail)
		return
	}

	ctx, cancel := s.requestContext(r)
	defer cancel()

	// Admission: one semaphore slot per in-flight allocation, so a
	// burst queues instead of oversubscribing the host (each request
	// may itself fan out opt.Workers goroutines). The slot is released
	// through a once-guarded closure because the portfolio path hands
	// it back early: there each racing candidate is admitted against
	// the same semaphore individually, and holding the request's own
	// slot across the race would deadlock at -max-inflight=1.
	release, fail := s.admit(ctx)
	if fail != nil {
		writeError(w, fail)
		return
	}
	defer release()

	kind, fail := req.inputKind()
	if fail != nil {
		writeError(w, fail)
		return
	}
	if spec := req.portfolioSpec(); spec != "" {
		if kind != "src" {
			writeError(w, failf(http.StatusBadRequest, codeBadRequest, "portfolio races apply to source programs, not .ig graphs"))
			return
		}
		s.allocPortfolio(w, ctx, req, spec, release)
		return
	}

	resp, out, fail := s.allocCached(ctx, req, kind)
	if fail != nil {
		writeError(w, fail)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", out.String())
	w.Write(resp)
}

// allocCached serves one request through the result cache, under two
// keys. The raw key digests the payload as decoded and the resolved
// configuration; it is computed before anything compiles or parses,
// and when it names a resident entry that entry is the reply. Otherwise
// the payload is compiled or parsed and the canonical key derived from
// that form — the compiled IR or the graph — so formatting-only
// variants of one input collide on purpose; the singleflight layer
// collapses concurrent identical requests onto one allocation. Once
// the canonical lookup succeeds, the raw key becomes an alias of its
// entry for the next identical request.
func (s *server) allocCached(ctx context.Context, req *AllocRequest, kind string) ([]byte, rescache.Outcome, *apiError) {
	opt, fail := req.options()
	if fail != nil {
		return nil, rescache.Miss, fail
	}
	// options leaves "pcolor" to the graph path, so a program naming it
	// would run the default heuristic under the default's raw key.
	if kind == "src" && req.Heuristic == "pcolor" {
		return nil, rescache.Miss, failf(http.StatusBadRequest, codeBadHeuristic,
			"heuristic pcolor colors .ig graphs only; to race the pcolor engine on a program, send portfolio=pcolor/s1")
	}
	rt, parent := reqtrace.FromContext(ctx)
	rt.Annotate("unit", requestUnit(req, kind))
	rt.Annotate("heuristic", requestHeuristic(req, opt))

	cached := s.cache != nil && !req.NoCache
	var raw cachekey.Key
	if cached {
		tr := time.Now()
		raw = rawKey(kind, opt, req)
		rt.Record(parent, "rawkey", tr, time.Since(tr))
		if b, ok := s.cache.Lookup(ctx, raw); ok {
			rt.Annotate("cache", rescache.Hit.String())
			return b, rescache.Hit, nil
		}
	}

	var key cachekey.Key
	var fill func() ([]byte, error)
	switch kind {
	case "src":
		prog, err := compileTraced(ctx, req.Source)
		if err != nil {
			s.reg.Record(obs.RunSummary{Unit: "(compile)", Error: true})
			return nil, rescache.Miss, failErr(http.StatusBadRequest, codeCompileFailed, "compile", err)
		}
		if req.Unit != "" && prog.Func(req.Unit) == nil {
			s.reg.Record(obs.RunSummary{Unit: req.Unit, Error: true})
			return nil, rescache.Miss, failf(http.StatusBadRequest, codeUnknownUnit, "no unit %s (have %s)", req.Unit, strings.Join(prog.Functions(), ", "))
		}
		tk := time.Now()
		key = srcKey(prog, opt, req)
		rt.Record(parent, "cachekey", tk, time.Since(tk))
		fill = func() ([]byte, error) { return s.sourceBody(ctx, prog, opt, req) }
	case "ig":
		g, costs, err := graphgen.ReadGraph(strings.NewReader(req.Source))
		if err != nil {
			s.reg.Record(obs.RunSummary{Unit: "(graph)", Error: true})
			return nil, rescache.Miss, failErr(http.StatusBadRequest, codeBadGraph, "parse graph", err)
		}
		tk := time.Now()
		key = graphKey(g, costs, opt, req)
		rt.Record(parent, "cachekey", tk, time.Since(tk))
		fill = func() ([]byte, error) { return s.graphBody(ctx, g, costs, opt, req) }
	default:
		return nil, rescache.Miss, failf(http.StatusBadRequest, codeBadRequest, "unknown input kind %q", kind)
	}

	if !cached {
		b, err := fill()
		rt.Annotate("cache", "bypass")
		if err != nil {
			return nil, rescache.Miss, s.asAPIError(ctx, err)
		}
		return b, rescache.Miss, nil
	}
	b, out, err := s.cache.Do(ctx, key, fill)
	rt.Annotate("cache", out.String())
	if err != nil {
		return nil, out, s.asAPIError(ctx, err)
	}
	s.cache.Alias(raw, key)
	return b, out, nil
}

// compileTraced compiles source, recording a compile span under the
// request's span. Every source request that misses the raw key
// compiles, since the canonical key is a digest of the compiled IR.
func compileTraced(ctx context.Context, source string) (*regalloc.Program, error) {
	rt, parent := reqtrace.FromContext(ctx)
	t0 := time.Now()
	prog, err := regalloc.Compile(source)
	if err != nil {
		rt.Record(parent, "compile", t0, time.Since(t0), reqtrace.Attr{Key: "error", Value: err.Error()})
	} else {
		rt.Record(parent, "compile", t0, time.Since(t0))
	}
	return prog, err
}

// requestUnit names the request's allocation target for annotations
// and the access log, matching the unit labels the registry uses.
func requestUnit(req *AllocRequest, kind string) string {
	if req.Unit != "" {
		return req.Unit
	}
	if kind == "ig" {
		return "graph"
	}
	return "(program)"
}

// requestHeuristic names the engine for annotations and the access
// log: the explicit request string when given (it distinguishes
// pcolor, which Options folds into flags), the parsed option's
// heuristic otherwise.
func requestHeuristic(req *AllocRequest, opt regalloc.Options) string {
	if req.Heuristic != "" {
		return req.Heuristic
	}
	return opt.Heuristic.String()
}

// asAPIError normalizes a fill error: typed failures pass through,
// context failures (a waiter abandoned by its deadline, a cancelled
// run) get the drain/backpressure classification, anything else is
// the service's 500.
func (s *server) asAPIError(ctx context.Context, err error) *apiError {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae
	}
	if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return s.ctxFailure(ctx, "allocation cancelled", codeDeadlineExceeded)
	}
	return failErr(http.StatusInternalServerError, codeInternal, "allocation", err)
}

// srcKey is the canonical cache identity of one source-program
// request: the digest of the unit set actually allocated (the whole
// program, or the one selected routine) bound by requestKey.
// Equivalent sources — same IR after the front end normalizes
// comments, spacing, and names — collide; different configurations
// never do.
func srcKey(prog *regalloc.Program, opt regalloc.Options, req *AllocRequest) cachekey.Key {
	var pk cachekey.Key
	if req.Unit != "" {
		pk = cachekey.Func(prog.Func(req.Unit))
	} else {
		pk = cachekey.Program(prog.IR.Funcs)
	}
	return requestKey("allocd/v1/src", pk, "src", opt, req)
}

// graphKey is the canonical cache identity of one .ig request: the
// canonical graph digest (edge order and formatting do not matter)
// bound by requestKey.
func graphKey(g *ig.Graph, costs []float64, opt regalloc.Options, req *AllocRequest) cachekey.Key {
	return requestKey("allocd/v1/ig", cachekey.Graph(g, costs), "ig", opt, req)
}

// rawKey is the cache identity of a request as decoded, before
// anything compiles or parses: a digest of the input kind and the
// payload text bound by requestKey. Two requests with one raw key
// carry one payload under one resolved configuration, so they have
// one canonical key, and the raw key may stand in for it.
func rawKey(kind string, opt regalloc.Options, req *AllocRequest) cachekey.Key {
	h := cachekey.New("allocd/v1/raw-payload")
	h.Str(kind)
	h.Str(req.Source)
	return requestKey("allocd/v1/raw", h.Key(), kind, opt, req)
}

// requestKey binds a payload digest, under tag, to the request fields
// besides the payload that shape the reply. For source, those are the
// options fingerprint, unit and colors. For graphs, they are the
// fingerprint with the pcolor engine's seed folded in when that is
// the requested heuristic, the engine's worker count (the graph path
// runs the engine on the requested count, and the pair fixes the
// coloring), and colors; the unit is left out there, since it names
// the run for the metrics and changes no byte of the reply. The raw
// and canonical keys both bind through here, so they cover the same
// fields.
func requestKey(tag string, payload cachekey.Key, kind string, opt regalloc.Options, req *AllocRequest) cachekey.Key {
	pcolorGraph := kind == "ig" && req.Heuristic == "pcolor"
	if pcolorGraph {
		opt.UsePColor = true
		opt.PColorSeed = pcolorSeed(req)
	}
	ok := cachekey.Options(opt)
	h := cachekey.New(tag)
	h.Bytes(payload[:])
	h.Bytes(ok[:])
	if kind == "src" {
		h.Str(req.Unit)
	}
	if pcolorGraph {
		h.Int(int64(pcolorWorkers(req)))
	}
	h.Bool(req.Colors)
	return h.Key()
}

// pcolorSeed and pcolorWorkers resolve the speculative engine's
// parameters. Workers is resolved to its effective count up front so
// the cache key and the run agree (pcolor itself maps <= 0 to
// GOMAXPROCS).
func pcolorSeed(req *AllocRequest) uint64 {
	if req.Seed != nil {
		return *req.Seed
	}
	return 1
}

func pcolorWorkers(req *AllocRequest) int {
	if req.Workers != nil && *req.Workers > 0 {
		return *req.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// unitResponse is one routine's allocation in the reply.
type unitResponse struct {
	Unit         string           `json:"unit"`
	LiveRanges   int              `json:"live_ranges"`
	Edges        int              `json:"edges"`
	Passes       int              `json:"passes"`
	Spilled      int              `json:"spilled"`
	SpillCost    float64          `json:"spill_cost"`
	PaletteInt   int              `json:"palette_int"`
	PaletteFloat int              `json:"palette_float"`
	TotalNS      int64            `json:"total_ns"`
	PhaseNS      map[string]int64 `json:"phase_ns"`
	Colors       []int16          `json:"colors,omitempty"`

	// Portfolio carries the race report when the portfolio raced this
	// unit; the flat fields above then describe the winner.
	Portfolio *portfolioResponse `json:"portfolio,omitempty"`
}

// portfolioResponse is one unit's race report in the reply.
type portfolioResponse struct {
	Mode       string                       `json:"mode"`
	Winner     string                       `json:"winner"`
	WinMargin  float64                      `json:"win_margin"`
	Candidates []portfolioCandidateResponse `json:"candidates"`
}

// portfolioCandidateResponse is one strategy's outcome in a race.
type portfolioCandidateResponse struct {
	Name      string  `json:"name"`
	Status    string  `json:"status"`
	Spills    int     `json:"spills"`
	SpillCost float64 `json:"spill_cost"`
	NS        int64   `json:"ns"`
	Error     string  `json:"error,omitempty"`
}

type allocResponse struct {
	Input        string         `json:"input"`
	Units        []unitResponse `json:"units"`
	SpilledTotal int            `json:"spilled_total"`
	SpillCost    float64        `json:"spill_cost_total"`
	TotalNS      int64          `json:"total_ns"`

	// Machine echoes the resolved register-file model when the
	// request asked for one: what the allocation was constrained by,
	// per class.
	Machine *machineResponse `json:"machine,omitempty"`
}

// addUnit appends the row of the unit sum describes and adds it to
// the reply's totals. colors is the unit's coloring when the request
// asked for it, and p its race report when the portfolio raced it.
func (r *allocResponse) addUnit(sum regalloc.RunSummary, colors []int16, p *portfolioResponse) {
	r.Units = append(r.Units, unitResponse{
		Unit:         sum.Unit,
		LiveRanges:   sum.LiveRanges,
		Edges:        sum.Edges,
		Passes:       sum.Passes,
		Spilled:      sum.Spills,
		SpillCost:    float64(sum.SpillCostMilli) / 1000,
		PaletteInt:   sum.PaletteInt,
		PaletteFloat: sum.PaletteFloat,
		TotalNS:      sum.TotalNS,
		PhaseNS:      phaseNSMap(sum),
		Colors:       colors,
		Portfolio:    p,
	})
	r.SpilledTotal += sum.Spills
	r.SpillCost += float64(sum.SpillCostMilli) / 1000
	r.TotalNS += sum.TotalNS
}

// machineResponse is the resolved machine model in the reply.
type machineResponse struct {
	Name    string                 `json:"name"`
	Classes []machineClassResponse `json:"classes"`
}

// machineClassResponse describes one register class's file and
// convention.
type machineClassResponse struct {
	Class       string  `json:"class"`
	K           int     `json:"k"`
	CallerSaved int     `json:"caller_saved"`
	ArgRegs     []int16 `json:"arg_regs"`
	RetReg      int16   `json:"ret_reg"`
}

// machineEcho renders the model for the response.
func machineEcho(m *regalloc.MachineModel) *machineResponse {
	if m == nil {
		return nil
	}
	mr := &machineResponse{Name: m.Name}
	for c := ir.Class(0); c < ir.NumClasses; c++ {
		mr.Classes = append(mr.Classes, machineClassResponse{
			Class:       c.String(),
			K:           m.NumRegs[c],
			CallerSaved: m.CallerSaved[c],
			ArgRegs:     m.ArgRegs[c],
			RetReg:      m.RetReg[c],
		})
	}
	return mr
}

// sourceBody allocates a compiled program's routines (all, or the
// one the request selects) on the bounded worker pool and renders
// the response. It runs as a cache fill: on a hit none of this — the
// allocation, the registry recording — happens again, by design.
func (s *server) sourceBody(ctx context.Context, prog *regalloc.Program, opt regalloc.Options, req *AllocRequest) ([]byte, error) {
	opt.Observer = s.metrics
	var results map[string]*regalloc.Result
	var err error
	unit, what := "(program)", "allocate"
	if req.Unit != "" {
		unit, what = req.Unit, "allocate "+req.Unit
		var res *regalloc.Result
		res, err = prog.AllocateContext(ctx, req.Unit, opt)
		results = map[string]*regalloc.Result{req.Unit: res}
	} else {
		results, err = prog.AllocateAllContext(ctx, opt)
	}
	if err != nil {
		s.reg.Record(obs.RunSummary{Unit: unit, Error: true})
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The allocator's error says where the deadline landed.
			fail := s.ctxFailure(ctx, what, codeDeadlineExceeded)
			fail.Detail = err.Error()
			return nil, fail
		}
		return nil, failErr(http.StatusBadRequest, codeBadRequest, what, err)
	}

	resp := allocResponse{Input: "src", Machine: machineEcho(opt.Machine)}
	var costMilli int64
	for _, name := range prog.Functions() {
		res, ok := results[name]
		if !ok {
			continue
		}
		sum := regalloc.Summarize(name, res)
		s.reg.Record(sum)
		costMilli += sum.SpillCostMilli
		var colors []int16
		if req.Colors {
			colors = res.Colors
		}
		resp.addUnit(sum, colors, nil)
	}
	if rt, _ := reqtrace.FromContext(ctx); rt != nil {
		rt.Annotate("spill_cost_milli", strconv.FormatInt(costMilli, 10))
	}
	return renderJSON(resp)
}

// allocPortfolio races the strategy portfolio for each requested
// routine and replies with the winner plus the full race report. spec
// is "all" or a comma-separated candidate-name subset; pmode,
// pbudget, and pseeds tune the race. The request's own admission slot
// is handed back up front and each racing candidate acquires its own
// instead, so a race counts against -max-inflight exactly as many
// slots as it has strategies in flight — and cannot deadlock at
// -max-inflight=1. Races never touch the result cache: their outcome
// depends on wall-clock, which a digest cannot capture.
func (s *server) allocPortfolio(w http.ResponseWriter, ctx context.Context, req *AllocRequest, spec string, release func()) {
	opt, fail := req.options()
	if fail != nil {
		writeError(w, fail)
		return
	}
	rt, _ := reqtrace.FromContext(ctx)
	rt.Annotate("unit", requestUnit(req, "src"))
	rt.Annotate("heuristic", "portfolio")
	rt.Annotate("cache", "bypass")
	opt.Observer = s.metrics
	prog, err := compileTraced(ctx, req.Source)
	if err != nil {
		s.reg.Record(obs.RunSummary{Unit: "(compile)", Error: true})
		writeError(w, failErr(http.StatusBadRequest, codeCompileFailed, "compile", err))
		return
	}

	seeds := portfolio.DefaultSeeds
	if req.PSeeds != "" {
		seeds = nil
		for _, f := range strings.Split(req.PSeeds, ",") {
			seed, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
			if err != nil {
				writeError(w, failErr(http.StatusBadRequest, codeBadRequest, "pseeds", err))
				return
			}
			seeds = append(seeds, seed)
		}
	}
	cands := regalloc.DefaultPortfolio(opt, seeds...)
	if spec != "all" {
		byName := make(map[string]regalloc.PortfolioCandidate, len(cands))
		names := make([]string, 0, len(cands))
		for _, c := range cands {
			byName[c.Name] = c
			names = append(names, c.Name)
		}
		var picked []regalloc.PortfolioCandidate
		for _, f := range strings.Split(spec, ",") {
			name := strings.TrimSpace(f)
			c, ok := byName[name]
			if !ok {
				writeError(w, failf(http.StatusBadRequest, codeBadRequest, "portfolio: unknown candidate %q (have %s)", name, strings.Join(names, ", ")))
				return
			}
			picked = append(picked, c)
		}
		cands = picked
	}

	cfg := regalloc.PortfolioConfig{Observer: s.metrics}
	if req.PMode != "" {
		if cfg.Mode, err = portfolio.ParseMode(req.PMode); err != nil {
			writeError(w, failErr(http.StatusBadRequest, codeBadRequest, "pmode", err))
			return
		}
	}
	if req.PBudget != "" {
		if cfg.Budget, err = time.ParseDuration(req.PBudget); err != nil {
			writeError(w, failErr(http.StatusBadRequest, codeBadRequest, "pbudget", err))
			return
		}
	}
	// Per-candidate admission against the service semaphore: a
	// candidate queued for a slot gives up when the request context
	// (or the race budget) is done, which cancels that candidate, not
	// the race.
	cfg.Acquire = func(ctx context.Context) error {
		select {
		case s.sem <- struct{}{}:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	cfg.Release = func() { <-s.sem }
	release()

	units := prog.Functions()
	if req.Unit != "" {
		units = []string{req.Unit}
	}
	resp := allocResponse{Input: "src", Machine: machineEcho(opt.Machine)}
	var costMilli int64
	for _, name := range units {
		pr, err := prog.AllocatePortfolio(ctx, name, cands, cfg)
		if err != nil {
			s.reg.Record(obs.RunSummary{Unit: name, Error: true})
			// A race that died to the deadline or a client disconnect
			// is the service's drain/backpressure answer, like every
			// other cancellation; a bad unit name or candidate set is
			// the client's 400.
			if ctx.Err() != nil {
				writeError(w, s.ctxFailure(ctx, "portfolio "+name, codeDeadlineExceeded))
			} else {
				writeError(w, failErr(http.StatusBadRequest, codeBadRequest, "portfolio "+name, err))
			}
			return
		}
		sum := regalloc.SummarizePortfolio(name, pr)
		s.reg.Record(sum)
		costMilli += sum.SpillCostMilli
		win := pr.Outcomes[pr.Winner]
		p := &portfolioResponse{
			Mode:      pr.Mode.String(),
			Winner:    win.Name,
			WinMargin: float64(pr.WinMarginMilli) / 1000,
		}
		for _, o := range pr.Outcomes {
			pc := portfolioCandidateResponse{
				Name:      o.Name,
				Status:    o.Status.String(),
				Spills:    o.Spills,
				SpillCost: float64(o.SpillCostMilli) / 1000,
				NS:        o.Duration.Nanoseconds(),
			}
			if o.Err != nil {
				pc.Error = o.Err.Error()
			}
			p.Candidates = append(p.Candidates, pc)
		}
		var colors []int16
		if req.Colors {
			colors = pr.Res.Colors
		}
		resp.addUnit(sum, colors, p)
	}
	rt.Annotate("spill_cost_milli", strconv.FormatInt(costMilli, 10))
	writeJSON(w, resp)
}

// graphResponse is the reply for an interference-graph payload.
type graphResponse struct {
	Input     string  `json:"input"`
	Heuristic string  `json:"heuristic"`
	Nodes     int     `json:"nodes"`
	Edges     int     `json:"edges"`
	Spilled   []int32 `json:"spilled"`
	SpillCost float64 `json:"spill_cost"`
	Colors    []int16 `json:"colors,omitempty"`

	// pcolor only:
	Workers     int `json:"workers,omitempty"`
	Rounds      int `json:"rounds,omitempty"`
	Conflicts   int `json:"conflicts,omitempty"`
	Recolored   int `json:"recolored,omitempty"`
	ColorsInt   int `json:"colors_int,omitempty"`
	ColorsFloat int `json:"colors_float,omitempty"`
}

// graphBody colors a parsed .ig graph under one heuristic (chaitin,
// briggs, mb, or the speculative parallel engine with
// heuristic=pcolor) and renders the response. Like sourceBody it
// runs as a cache fill.
func (s *server) graphBody(ctx context.Context, g *ig.Graph, costs []float64, opt regalloc.Options, req *AllocRequest) ([]byte, error) {
	name := req.Unit
	if name == "" {
		name = "graph"
	}
	rt, parent := reqtrace.FromContext(ctx)

	// The SSA heuristic colors in dominance order and IRC coalesces
	// move instructions, neither of which a bare interference graph
	// carries; both apply to source payloads only.
	if opt.Heuristic == color.SSA {
		return nil, failErr(http.StatusBadRequest, codeBadHeuristic, "heuristic",
			errors.New("heuristic ssa needs program structure (dominance order); send mini-FORTRAN source, not a graph"))
	}
	if opt.Heuristic == color.IRC {
		return nil, failErr(http.StatusBadRequest, codeBadHeuristic, "heuristic",
			errors.New("heuristic irc needs program structure (move instructions); send mini-FORTRAN source, not a graph"))
	}
	// Likewise the machine model: precolored argument and return
	// bindings attach to instructions, not to anonymous graph nodes.
	if opt.Machine != nil {
		return nil, failErr(http.StatusBadRequest, codeBadMachine, "machine",
			errors.New("a machine model needs program structure (convention bindings); send mini-FORTRAN source, not a graph"))
	}

	if req.Heuristic == "pcolor" {
		span, end := rt.StartSpan(parent, "alloc:"+name, reqtrace.Attr{Key: "heuristic", Value: "pcolor"})
		tr := obs.New(rt.PhaseSpans(span), name)
		t0 := tr.Begin(obs.PhaseColor)
		colors, st := pcolor.Color(g, pcolor.Options{Workers: pcolorWorkers(req), Seed: pcolorSeed(req)})
		dur := tr.End(obs.PhaseColor, t0)
		end()
		rt.Annotate("spill_cost_milli", "0")
		if err := color.Verify(g, colors, pcolor.KFor(st)); err != nil {
			s.reg.Record(obs.RunSummary{Unit: name, Error: true})
			return nil, failErr(http.StatusInternalServerError, codeInternal, "pcolor verify", err)
		}
		sum := obs.RunSummary{
			Unit:            name,
			LiveRanges:      g.NumNodes(),
			Edges:           g.NumEdges(),
			PaletteInt:      st.ColorsInt,
			PaletteFloat:    st.ColorsFloat,
			PColorRounds:    st.Rounds,
			PColorConflicts: st.Conflicts,
			TotalNS:         dur.Nanoseconds(),
		}
		sum.PhaseNS[obs.PhaseColor] = dur.Nanoseconds()
		s.reg.Record(sum)
		resp := graphResponse{
			Input: "ig", Heuristic: "pcolor", Nodes: g.NumNodes(), Edges: g.NumEdges(),
			Spilled: []int32{}, Workers: st.Workers, Rounds: st.Rounds,
			Conflicts: st.Conflicts, Recolored: st.Recolored,
			ColorsInt: st.ColorsInt, ColorsFloat: st.ColorsFloat,
		}
		if req.Colors {
			resp.Colors = colors
		}
		return renderJSON(resp)
	}

	h := opt.Heuristic
	span, end := rt.StartSpan(parent, "alloc:"+name, reqtrace.Attr{Key: "heuristic", Value: h.String()})
	tr := obs.New(obs.Multi(s.metrics, rt.PhaseSpans(span)), name)
	out := color.Run(nil, g, nil, costs, opt.K(), h, opt.Metric, tr)
	end()
	spilled, colors := out.Spilled, out.Colors
	cost := 0.0
	for _, n := range spilled {
		cost += costs[n]
	}
	if rt != nil {
		rt.Annotate("spill_cost_milli", strconv.FormatInt(obs.SpillCostMilli(cost), 10))
	}
	sum := obs.RunSummary{
		Unit:           name,
		LiveRanges:     g.NumNodes(),
		Edges:          g.NumEdges(),
		Spills:         len(spilled),
		SpillCostMilli: obs.SpillCostMilli(cost),
		TotalNS:        (out.Simplify + out.Select).Nanoseconds(),
	}
	if colors != nil {
		var maxInt, maxFloat int16 = -1, -1
		for n, c := range colors {
			if c < 0 {
				continue
			}
			if g.Class(int32(n)) == ir.ClassFloat {
				if c > maxFloat {
					maxFloat = c
				}
			} else if c > maxInt {
				maxInt = c
			}
		}
		sum.PaletteInt = int(maxInt) + 1
		sum.PaletteFloat = int(maxFloat) + 1
	}
	sum.PhaseNS[obs.PhaseSimplify] = out.Simplify.Nanoseconds()
	sum.PhaseNS[obs.PhaseColor] = out.Select.Nanoseconds()
	s.reg.Record(sum)

	if spilled == nil {
		spilled = []int32{}
	}
	resp := graphResponse{
		Input: "ig", Heuristic: h.String(), Nodes: g.NumNodes(), Edges: g.NumEdges(),
		Spilled: spilled, SpillCost: cost,
	}
	if req.Colors {
		resp.Colors = colors
	}
	return renderJSON(resp)
}

// renderJSON encodes a response body exactly as writeJSON sends it,
// so cached bytes are byte-identical to a directly-written reply.
func renderJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// phaseNSMap renders a RunSummary's phase array with phase names as
// keys, for the JSON reply.
func phaseNSMap(s obs.RunSummary) map[string]int64 {
	m := make(map[string]int64, obs.NumPhases)
	for p := 0; p < obs.NumPhases; p++ {
		if s.PhaseNS[p] > 0 {
			m[obs.Phase(p).String()] = s.PhaseNS[p]
		}
	}
	return m
}

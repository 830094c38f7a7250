// api.go is the /v1 request surface: the typed AllocRequest decoded
// from a JSON body or from legacy query parameters by one shared
// parser, and the structured error envelope every non-2xx response
// carries.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"regalloc"
	"regalloc/internal/color"
)

// Machine-readable error codes, mirrored from the library's typed
// Options.Validate errors where one exists. Codes are API surface:
// clients switch on them, so they only ever grow.
const (
	codeMethodNotAllowed      = "method_not_allowed"
	codeBodyTooLarge          = "body_too_large"
	codeBadBody               = "bad_body"
	codeEmptyBody             = "empty_body"
	codeBadRequest            = "bad_request"
	codeBadK                  = "bad_k"
	codeBadHeuristic          = "bad_heuristic"
	codeBadMetric             = "bad_metric"
	codeBadMachine            = "bad_machine"
	codeConflictingSpillModes = "conflicting_spill_modes"
	codeBadWorkers            = "bad_workers"
	codeCompileFailed         = "compile_failed"
	codeBadGraph              = "bad_graph"
	codeUnknownUnit           = "unknown_unit"
	codeBatchTooLarge         = "batch_too_large"
	codeAdmissionTimeout      = "admission_timeout"
	codeDeadlineExceeded      = "deadline_exceeded"
	codeUnavailable           = "unavailable"
	codeInternal              = "internal"
)

// apiError is one failure, carried as an error value through the
// request path and rendered as the envelope
// {"error": {"code", "message", "detail"}} on the wire.
type apiError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
	Detail  string `json:"detail,omitempty"`
}

func (e *apiError) Error() string {
	if e.Detail != "" {
		return e.Message + ": " + e.Detail
	}
	return e.Message
}

// failf builds an apiError with a formatted message.
func failf(status int, code, format string, args ...any) *apiError {
	return &apiError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// failErr builds an apiError whose detail is the underlying error.
func failErr(status int, code, msg string, err error) *apiError {
	e := failf(status, code, "%s", msg)
	if err != nil {
		e.Detail = err.Error()
	}
	return e
}

// optionsFailure maps an Options parse/validation error to its typed
// code via errors.Is, defaulting to bad_request.
func optionsFailure(err error) *apiError {
	code := codeBadRequest
	switch {
	case errors.Is(err, regalloc.ErrBadK):
		code = codeBadK
	case errors.Is(err, regalloc.ErrBadHeuristic):
		code = codeBadHeuristic
	case errors.Is(err, regalloc.ErrBadMetric):
		code = codeBadMetric
	case errors.Is(err, regalloc.ErrBadMachine):
		code = codeBadMachine
	case errors.Is(err, regalloc.ErrConflictingSpillModes):
		code = codeConflictingSpillModes
	case errors.Is(err, regalloc.ErrBadWorkers):
		code = codeBadWorkers
	}
	return failErr(http.StatusBadRequest, code, "bad options", err)
}

// writeError renders the envelope. Every non-2xx body the service
// produces goes through here.
func writeError(w http.ResponseWriter, e *apiError) {
	w.Header().Set("Content-Type", "application/json")
	if e.Status == http.StatusTooManyRequests {
		// Admission pressure is transient by definition; tell clients
		// when to come back.
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(e.Status)
	json.NewEncoder(w).Encode(struct {
		Error *apiError `json:"error"`
	}{e})
}

// AllocRequest is one allocation request, decodable from a JSON body
// or from legacy query parameters (one shared parser; see decode).
// Pointer fields distinguish "unset, keep the paper's default" from
// an explicit value.
type AllocRequest struct {
	// Input forces the payload kind ("src" or "ig"); empty sniffs by
	// the .ig node-count directive.
	Input string `json:"input,omitempty"`
	// Source is the payload: mini-FORTRAN source or .ig graph text.
	// In the legacy form this is the raw request body.
	Source string `json:"source,omitempty"`
	// Unit picks one routine of a source program (default: all).
	Unit string `json:"unit,omitempty"`
	// Colors includes the per-register assignment in the reply.
	Colors bool `json:"colors,omitempty"`

	Heuristic string `json:"heuristic,omitempty"`
	// Machine names a register-file model ("rtpc"), resized to the
	// request's kint/kfloat: precolored argument/return registers,
	// caller-saved call clobbers, and convention bindings constrain
	// the allocation, and the resolved model is echoed in the reply.
	Machine      string `json:"machine,omitempty"`
	KInt         *int   `json:"kint,omitempty"`
	KFloat       *int   `json:"kfloat,omitempty"`
	Metric       string `json:"metric,omitempty"`
	Coalesce     *bool  `json:"coalesce,omitempty"`
	Conservative *bool  `json:"conservative,omitempty"`
	Remat        *bool  `json:"remat,omitempty"`
	Split        *bool  `json:"split,omitempty"`
	Workers      *int   `json:"workers,omitempty"`
	MaxPasses    *int   `json:"maxpasses,omitempty"`

	// Seed drives the pcolor engine on the graph path
	// (heuristic=pcolor); ignored otherwise.
	Seed *uint64 `json:"seed,omitempty"`

	// Portfolio races the strategy portfolio instead of a single
	// configuration: "all", a comma-separated candidate subset, or a
	// truthy/falsy flag. PMode, PBudget, and PSeeds tune the race.
	Portfolio string `json:"portfolio,omitempty"`
	PMode     string `json:"pmode,omitempty"`
	PBudget   string `json:"pbudget,omitempty"`
	PSeeds    string `json:"pseeds,omitempty"`

	// NoCache bypasses the result cache for this request (the entry
	// is neither read nor written).
	NoCache bool `json:"nocache,omitempty"`
}

// decodeAllocRequest builds the request from an HTTP body: a JSON
// object (Content-Type application/json, or a body starting with
// '{') decodes directly with unknown fields rejected; anything else
// is the legacy form — the body is the payload and every knob comes
// from query parameters.
func decodeAllocRequest(r *http.Request, body []byte) (*AllocRequest, *apiError) {
	trimmed := bytes.TrimSpace(body)
	ct := r.Header.Get("Content-Type")
	if strings.Contains(ct, "json") || (len(trimmed) > 0 && trimmed[0] == '{') {
		req := &AllocRequest{}
		dec := json.NewDecoder(bytes.NewReader(trimmed))
		dec.DisallowUnknownFields()
		if err := dec.Decode(req); err != nil {
			return nil, failErr(http.StatusBadRequest, codeBadBody, "decoding JSON request", err)
		}
		// Trailing garbage after the object is a malformed request,
		// not a second message.
		if dec.More() {
			return nil, failf(http.StatusBadRequest, codeBadBody, "trailing data after JSON request object")
		}
		return req, nil
	}
	req, fail := requestFromParams(r.URL.Query())
	if fail != nil {
		return nil, fail
	}
	req.Source = string(body)
	return req, nil
}

// requestFromParams is the legacy-parameter half of the shared
// parser: every /v1 JSON field has a same-named query parameter.
func requestFromParams(q url.Values) (*AllocRequest, *apiError) {
	req := &AllocRequest{
		Input:     q.Get("input"),
		Unit:      q.Get("unit"),
		Heuristic: q.Get("heuristic"),
		Machine:   q.Get("machine"),
		Metric:    q.Get("metric"),
		Portfolio: q.Get("portfolio"),
		PMode:     q.Get("pmode"),
		PBudget:   q.Get("pbudget"),
		PSeeds:    q.Get("pseeds"),
	}
	for _, p := range []struct {
		name string
		dst  **int
	}{
		{"kint", &req.KInt}, {"kfloat", &req.KFloat},
		{"workers", &req.Workers}, {"maxpasses", &req.MaxPasses},
	} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, failErr(http.StatusBadRequest, codeBadRequest, p.name, err)
			}
			*p.dst = &n
		}
	}
	for _, p := range []struct {
		name string
		dst  **bool
	}{
		{"coalesce", &req.Coalesce}, {"conservative", &req.Conservative},
		{"remat", &req.Remat}, {"split", &req.Split},
	} {
		if v := q.Get(p.name); v != "" {
			b, err := strconv.ParseBool(v)
			if err != nil {
				return nil, failErr(http.StatusBadRequest, codeBadRequest, p.name, err)
			}
			*p.dst = &b
		}
	}
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return nil, failErr(http.StatusBadRequest, codeBadRequest, "seed", err)
		}
		req.Seed = &seed
	}
	if v := q.Get("colors"); v != "" {
		b, err := strconv.ParseBool(v)
		// Tolerate the historical loose form (?colors=junk meant
		// false) but accept only clean booleans going forward.
		if err != nil {
			return nil, failErr(http.StatusBadRequest, codeBadRequest, "colors", err)
		}
		req.Colors = b
	}
	if v := q.Get("nocache"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return nil, failErr(http.StatusBadRequest, codeBadRequest, "nocache", err)
		}
		req.NoCache = b
	}
	return req, nil
}

// options resolves the request's allocator configuration: unset
// fields keep the paper's defaults, set fields are parsed and the
// whole result validated (typed failures, see optionsFailure).
func (req *AllocRequest) options() (regalloc.Options, *apiError) {
	opt := regalloc.DefaultOptions()
	var err error
	// The graph path handles "pcolor" itself; the option parser only
	// sees the library's heuristics.
	if req.Heuristic != "" && req.Heuristic != "pcolor" {
		opt.Heuristic, err = color.ParseHeuristic(req.Heuristic)
		if err != nil {
			return opt, failErr(http.StatusBadRequest, codeBadHeuristic, "heuristic", err)
		}
	}
	if req.Metric != "" {
		opt.Metric, err = parseMetric(req.Metric)
		if err != nil {
			return opt, failErr(http.StatusBadRequest, codeBadMetric, "metric", err)
		}
	}
	if req.KInt != nil {
		opt.KInt = *req.KInt
	}
	if req.KFloat != nil {
		opt.KFloat = *req.KFloat
	}
	if req.Workers != nil {
		opt.Workers = *req.Workers
	}
	if req.MaxPasses != nil {
		opt.MaxPasses = *req.MaxPasses
	}
	if req.Coalesce != nil {
		opt.Coalesce = *req.Coalesce
	}
	if req.Conservative != nil {
		opt.ConservativeCoalesce = *req.Conservative
	}
	if req.Remat != nil {
		opt.Rematerialize = *req.Remat
	}
	if req.Split != nil {
		opt.Split = *req.Split
	}
	// Resolve the machine model after K so a resized request gets a
	// convention derived at its own register-file size (Validate
	// demands the two agree).
	if req.Machine != "" {
		switch req.Machine {
		case "rtpc", "rt/pc":
			m := regalloc.RTPC().WithGPR(opt.KInt).WithFPR(opt.KFloat)
			opt.Machine = regalloc.MachineFor(m)
		default:
			return opt, failf(http.StatusBadRequest, codeBadMachine,
				"unknown machine %q (want rtpc)", req.Machine)
		}
	}
	if err := opt.Validate(); err != nil {
		return opt, optionsFailure(err)
	}
	return opt, nil
}

// inputKind resolves the payload kind: forced by Input, else sniffed
// by the .ig node-count directive.
func (req *AllocRequest) inputKind() (string, *apiError) {
	switch req.Input {
	case "src", "ig":
		return req.Input, nil
	case "":
		if igFirstLine.MatchString(strings.TrimSpace(req.Source)) {
			return "ig", nil
		}
		return "src", nil
	}
	return "", failf(http.StatusBadRequest, codeBadRequest, "unknown input kind %q (want src or ig)", req.Input)
}

// portfolioSpec normalizes the Portfolio field: "" means no race, a
// truthy flag means the full default set, a falsy flag means no
// race, anything else is a candidate subset (validated later).
func (req *AllocRequest) portfolioSpec() string {
	spec := req.Portfolio
	if v, err := strconv.ParseBool(spec); err == nil {
		if !v {
			return ""
		}
		return "all"
	}
	return spec
}

func parseMetric(s string) (color.Metric, error) {
	switch s {
	case "costdegree", "cost/degree", "cost-over-degree":
		return color.CostOverDegree, nil
	case "cost":
		return color.CostOnly, nil
	case "degree":
		return color.DegreeOnly, nil
	}
	return 0, fmt.Errorf("unknown metric %q (want costdegree, cost, or degree)", s)
}

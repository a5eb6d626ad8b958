package dispatch

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"rowfuse/internal/faultpoint"
	"rowfuse/internal/jsonscan"
	"rowfuse/internal/resultio"
)

// The HTTP protocol cmd/campaignd serves and Client speaks. Sentinel
// conditions ride on a response header so the client can map them back
// to the exact errors the in-process queues return.
const (
	errHeader = "Rowfuse-Dispatch-Error"

	errValNoWork           = "no-work"
	errValDrained          = "drained"
	errValLeaseLost        = "lease-lost"
	errValDuplicate        = "duplicate-submit"
	errValConfigMismatch   = "config-mismatch"
	errValBadCheckpoint    = "bad-checkpoint"
	errValCanceled         = "canceled"
	errValUnknownCampaign  = "unknown-campaign"
	errValBadCampaignToken = "bad-campaign-token"
)

// CampaignTokenHeader carries a campaign's worker auth token on every
// campaign-scoped request a multi-campaign coordinator receives.
const CampaignTokenHeader = "Rowfuse-Campaign-Token"

// leaseRequest is the POST /v1/lease body.
type leaseRequest struct {
	Worker string `json:"worker"`
}

// submitRequest is the POST /v1/submit body. ElapsedNs is the wall
// time the worker spent computing the unit (0 = unmeasured), feeding
// the coordinator's cost model.
type submitRequest struct {
	Lease      Lease                `json:"lease"`
	Checkpoint *resultio.Checkpoint `json:"checkpoint"`
	ElapsedNs  int64                `json:"elapsedNs,omitempty"`
}

// maxBodyHint caps how far a request's Content-Length, the client's
// word, pre-sizes the buffer its body is read into; a longer body grows
// the buffer as it arrives.
const maxBodyHint = 64 << 10

// readSubmit reads a POST /v1/submit body whole and decodes it.
func readSubmit(r *http.Request) (submitRequest, error) {
	var body bytes.Buffer
	body.Grow(int(min(max(r.ContentLength, 0), maxBodyHint)) + bytes.MinRead)
	if _, err := body.ReadFrom(r.Body); err != nil {
		return submitRequest{}, err
	}
	return decodeSubmit(body.Bytes())
}

// decodeSubmit decodes a submit body as encoding/json's Decoder does:
// the first JSON value counts and bytes after it are ignored. The
// canonical envelope the Client sends, json.Marshal's layout of
// {"lease":…,"checkpoint":…,"elapsedNs":…}, is read by jsonscan and
// resultio.ScanCheckpoint, skipping encoding/json's reflection and
// syntax passes; every other body goes to encoding/json, so the
// accepted bodies and the decoded values are exactly its.
func decodeSubmit(body []byte) (submitRequest, error) {
	if req, ok := scanSubmit(body); ok {
		return req, nil
	}
	var req submitRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// scanSubmit reads the canonical submit envelope, or reports that body
// is not one.
func scanSubmit(body []byte) (req submitRequest, ok bool) {
	s := jsonscan.New(body)
	s.Expect('{')
	s.Key("lease")
	s.Expect('{')
	s.Key("unit")
	req.Lease.Unit = s.Int()
	s.Field("worker")
	req.Lease.Worker = s.String()
	s.Field("token")
	req.Lease.Token = s.String()
	s.Field("expires")
	req.Lease.Expires = s.Time()
	if s.NextField("cells") {
		req.Lease.Cells = jsonscan.Array(s, s.Int)
	}
	s.Expect('}')
	s.Field("checkpoint")
	req.Checkpoint = resultio.ScanCheckpoint(s)
	if s.NextField("elapsedNs") {
		req.ElapsedNs = s.Int64()
	}
	s.Expect('}')
	return req, s.OK()
}

// partialRequest is the POST /v1/partial body; a nil Checkpoint with
// Load set fetches the unit's stored intra-unit checkpoint instead.
type partialRequest struct {
	Lease      Lease                `json:"lease"`
	Checkpoint *resultio.Checkpoint `json:"checkpoint,omitempty"`
	Load       bool                 `json:"load,omitempty"`
}

// partialResponse is the POST /v1/partial load-mode response.
type partialResponse struct {
	Checkpoint *resultio.Checkpoint `json:"checkpoint"`
}

// failRequest is the POST /v1/fail body: a worker reporting that its
// unit's work errored under a live lease.
type failRequest struct {
	Lease  Lease  `json:"lease"`
	Reason string `json:"reason,omitempty"`
}

// quarActionRequest is the POST /v1/quarantine body: an operator
// returning a dead-lettered unit to the pool or discarding it.
type quarActionRequest struct {
	Unit   int    `json:"unit"`
	Action string `json:"action"` // "requeue" or "drop"
}

// FollowSeparator terminates each report frame of a streamed
// (?follow=1) report: the frame's text, then this line. Clients split
// on it; terminals largely ignore it.
const FollowSeparator = "\f\n"

// NewHandler exposes q over HTTP:
//
//	GET  /v1/manifest    the campaign manifest
//	POST /v1/lease       {"worker": name} -> Lease
//	POST /v1/heartbeat   Lease -> 204
//	POST /v1/submit      {"lease": ..., "checkpoint": ..., "elapsedNs": n} -> 204
//	POST /v1/partial     {"lease": ..., "checkpoint": ...} -> 204 (save: the
//	                     checkpoint holds the cells new since the lease's
//	                     last acknowledged save, merged into the stored
//	                     partial)
//	                     {"lease": ..., "load": true} -> {"checkpoint": ...|null}
//	                     (the merged partial)
//	POST /v1/fail        {"lease": ..., "reason": ...} -> 204 (a strike)
//	GET  /v1/quarantine  the dead-letter list ([]QuarantineEntry)
//	POST /v1/quarantine  {"unit": n, "action": "requeue"|"drop"} -> 204
//	GET  /v1/status      Status
//	GET  /v1/checkpoint  the rolling merged (possibly partial) checkpoint
//	GET  /v1/report      text: coverage-annotated partial Table 2 / Fig 4,
//	                     quarantined cells marked; ?follow=1 streams a
//	                     fresh frame every ?interval (default 2s) until
//	                     the campaign drains
//
// Every request passes the "http.server" fault point, so chaos tests
// inject 5xx responses and slow replies without touching the queue.
//
// The submit handler reads its body whole. A canonical body, the one
// Client.Submit sends, skips encoding/json (decodeSubmit); any other
// goes to it, so the accepted bodies and the decoded values are
// encoding/json's. GET /v1/checkpoint writes SaveCheckpoint's bytes,
// which are unchanged, from its reflection-free writer.
func NewHandler(q Queue) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/manifest", func(w http.ResponseWriter, r *http.Request) {
		m, err := q.Manifest()
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, m)
	})
	mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req leaseRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Worker == "" {
			http.Error(w, "body must be {\"worker\": name}", http.StatusBadRequest)
			return
		}
		l, err := q.Acquire(req.Worker)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, l)
	})
	mux.HandleFunc("POST /v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var l Lease
		if err := json.NewDecoder(r.Body).Decode(&l); err != nil {
			http.Error(w, "body must be a lease", http.StatusBadRequest)
			return
		}
		if err := q.Heartbeat(l); err != nil {
			writeErr(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/submit", func(w http.ResponseWriter, r *http.Request) {
		req, err := readSubmit(r)
		if err != nil {
			http.Error(w, "body must be {\"lease\": ..., \"checkpoint\": ...}", http.StatusBadRequest)
			return
		}
		if err := q.Submit(req.Lease, req.Checkpoint, time.Duration(req.ElapsedNs)); err != nil {
			writeErr(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/partial", func(w http.ResponseWriter, r *http.Request) {
		var req partialRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "body must be {\"lease\": ..., \"checkpoint\": ...} or {\"lease\": ..., \"load\": true}", http.StatusBadRequest)
			return
		}
		if req.Load {
			cp, err := q.LoadPartial(req.Lease)
			if err != nil {
				writeErr(w, err)
				return
			}
			writeJSON(w, partialResponse{Checkpoint: cp})
			return
		}
		if err := q.SavePartial(req.Lease, req.Checkpoint); err != nil {
			writeErr(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/fail", func(w http.ResponseWriter, r *http.Request) {
		var req failRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "body must be {\"lease\": ..., \"reason\": ...}", http.StatusBadRequest)
			return
		}
		if err := q.Fail(req.Lease, req.Reason); err != nil {
			writeErr(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/quarantine", func(w http.ResponseWriter, r *http.Request) {
		entries, err := q.Quarantined()
		if err != nil {
			writeErr(w, err)
			return
		}
		if entries == nil {
			entries = []QuarantineEntry{}
		}
		writeJSON(w, entries)
	})
	mux.HandleFunc("POST /v1/quarantine", func(w http.ResponseWriter, r *http.Request) {
		var req quarActionRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "body must be {\"unit\": n, \"action\": \"requeue\"|\"drop\"}", http.StatusBadRequest)
			return
		}
		var err error
		switch req.Action {
		case "requeue":
			err = q.Requeue(req.Unit)
		case "drop":
			err = q.Drop(req.Unit)
		default:
			http.Error(w, fmt.Sprintf("unknown action %q (want requeue or drop)", req.Action), http.StatusBadRequest)
			return
		}
		if err != nil {
			writeErr(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		st, err := q.Status()
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, st)
	})
	mux.HandleFunc("GET /v1/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		cp, err := q.Merged()
		if err != nil {
			writeErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = resultio.SaveCheckpoint(w, cp)
	})
	mux.HandleFunc("GET /v1/report", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("follow") == "1" {
			followReport(w, r, q)
			return
		}
		var buf bytes.Buffer
		if err := RenderQueueReport(&buf, q); err != nil {
			writeErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write(buf.Bytes())
	})
	return faultMiddleware(mux)
}

// faultMiddleware passes every request through the "http.server" fault
// point, so a chaos schedule injects 5xx responses (or slow replies)
// uniformly across the protocol.
func faultMiddleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := faultpoint.Check("http.server"); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// followReport streams report frames — each the full rendered report
// followed by FollowSeparator — until the campaign drains or the
// client goes away. Frames are flushed as they are written, so an
// operator's terminal (or characterize -watch) sees coverage and
// quarantine changes live instead of polling.
func followReport(w http.ResponseWriter, r *http.Request, q Queue) {
	interval := 2 * time.Second
	if s := r.URL.Query().Get("interval"); s != "" {
		if d, err := time.ParseDuration(s); err == nil && d > 0 {
			// Honor the caller's cadence, floored so a pathological
			// interval cannot turn the stream into a busy loop.
			if d < 100*time.Millisecond {
				d = 100 * time.Millisecond
			}
			interval = d
		}
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		var buf bytes.Buffer
		if err := RenderQueueReport(&buf, q); err != nil {
			fmt.Fprintf(w, "report error: %v\n", err)
			return
		}
		buf.WriteString(FollowSeparator)
		if _, err := w.Write(buf.Bytes()); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if st, err := q.Status(); err == nil && st.Drained() {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr maps queue sentinels onto status codes + the error header.
func writeErr(w http.ResponseWriter, err error) {
	code, val := http.StatusInternalServerError, ""
	switch {
	case errors.Is(err, ErrNoWork):
		code, val = http.StatusConflict, errValNoWork
	case errors.Is(err, ErrDrained):
		code, val = http.StatusGone, errValDrained
	case errors.Is(err, ErrLeaseLost):
		code, val = http.StatusConflict, errValLeaseLost
	case errors.Is(err, ErrDuplicateSubmit):
		code, val = http.StatusConflict, errValDuplicate
	case errors.Is(err, ErrCanceled):
		code, val = http.StatusGone, errValCanceled
	case errors.Is(err, ErrUnknownCampaign):
		code, val = http.StatusNotFound, errValUnknownCampaign
	case errors.Is(err, ErrBadCampaignToken):
		code, val = http.StatusForbidden, errValBadCampaignToken
	case errors.Is(err, resultio.ErrConfigMismatch):
		code, val = http.StatusPreconditionFailed, errValConfigMismatch
	case errors.Is(err, resultio.ErrBadCheckpoint):
		code, val = http.StatusBadRequest, errValBadCheckpoint
	}
	if val != "" {
		w.Header().Set(errHeader, val)
	}
	http.Error(w, err.Error(), code)
}

// WriteError maps a queue sentinel onto its HTTP representation —
// status code plus the error header the Client decodes back into the
// same sentinel. For handlers layered around NewHandler (the
// multi-campaign registry) that reject requests with dispatch
// sentinels of their own.
func WriteError(w http.ResponseWriter, err error) { writeErr(w, err) }

// Client is the worker-side Queue over HTTP — against a classic
// single-campaign coordinator (Dial) or one campaign of a
// multi-campaign service (DialCampaign).
type Client struct {
	base   string
	prefix string // route namespace: "/v1" or "/v1/campaigns/{id}"
	token  string // campaign worker token, sent on every request
	hc     *http.Client

	manifest Manifest
}

// Dial fetches and validates the campaign manifest from a campaignd
// base URL (e.g. "http://coordinator:8473"). A nil hc gets a client
// with a request timeout: a coordinator that blackholes (partitioned
// network, frozen host) must surface as an error the worker loop can
// retry — not a forever-blocked POST that outlives the very lease TTL
// this design exists to enforce.
//
// The manifest fetch is retried on transport errors and on 5xx answers
// that carry no queue sentinel: at most dialAttempts (5) tries, with
// 100, 200, 400 and 800 ms of backoff between them (1.5 s in all, plus
// the requests themselves). Sentinel answers (ErrUnknownCampaign,
// ErrBadCampaignToken, ErrCanceled, ...) and other 4xx answers return
// at once.
func Dial(base string, hc *http.Client) (*Client, error) {
	return dial(base, "/v1", "", hc)
}

// DialCampaign targets one campaign hosted by a multi-campaign
// coordinator: requests go to /v1/campaigns/{id}/... and present the
// campaign's worker token. An unknown id surfaces as
// ErrUnknownCampaign, a wrong token as ErrBadCampaignToken, and a
// canceled campaign as ErrCanceled — all before any unit state is
// touched.
func DialCampaign(base, campaignID, token string, hc *http.Client) (*Client, error) {
	if campaignID == "" {
		return nil, fmt.Errorf("dispatch: DialCampaign: empty campaign id")
	}
	return dial(base, "/v1/campaigns/"+campaignID, token, hc)
}

// The manifest fetch's retry budget (see Dial).
const (
	dialAttempts = 5
	dialBackoff  = 100 * time.Millisecond
)

func dial(base, prefix, token string, hc *http.Client) (*Client, error) {
	if hc == nil {
		hc = &http.Client{Timeout: time.Minute}
	}
	c := &Client{base: strings.TrimRight(base, "/"), prefix: prefix, token: token, hc: hc}
	for attempt := 1; ; attempt++ {
		err := c.get("/manifest", &c.manifest)
		if err == nil {
			break
		}
		if attempt == dialAttempts || !transientAnswer(err) {
			return nil, err
		}
		time.Sleep(dialBackoff << (attempt - 1))
	}
	if err := c.manifest.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", base, err)
	}
	return c, nil
}

// Manifest implements Queue.
func (c *Client) Manifest() (Manifest, error) { return c.manifest, nil }

// Acquire implements Queue.
func (c *Client) Acquire(worker string) (Lease, error) {
	var l Lease
	if err := c.post("/lease", leaseRequest{Worker: worker}, &l); err != nil {
		return Lease{}, err
	}
	return l, nil
}

// Heartbeat implements Queue.
func (c *Client) Heartbeat(l Lease) error {
	return c.post("/heartbeat", l, nil)
}

// Submit implements Queue.
func (c *Client) Submit(l Lease, cp *resultio.Checkpoint, elapsed time.Duration) error {
	return c.post("/submit", submitRequest{Lease: l, Checkpoint: cp, ElapsedNs: elapsed.Nanoseconds()}, nil)
}

// SavePartial implements Queue.
func (c *Client) SavePartial(l Lease, cp *resultio.Checkpoint) error {
	return c.post("/partial", partialRequest{Lease: l, Checkpoint: cp}, nil)
}

// LoadPartial implements Queue.
func (c *Client) LoadPartial(l Lease) (*resultio.Checkpoint, error) {
	var resp partialResponse
	if err := c.post("/partial", partialRequest{Lease: l, Load: true}, &resp); err != nil {
		return nil, err
	}
	return resp.Checkpoint, nil
}

// Status implements Queue.
func (c *Client) Status() (Status, error) {
	var st Status
	if err := c.get("/status", &st); err != nil {
		return Status{}, err
	}
	return st, nil
}

// Merged implements Queue.
func (c *Client) Merged() (*resultio.Checkpoint, error) {
	resp, err := c.do("GET", "/checkpoint", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := responseErr(resp); err != nil {
		return nil, err
	}
	return resultio.LoadCheckpoint(resp.Body)
}

// Fail implements Queue.
func (c *Client) Fail(l Lease, reason string) error {
	return c.post("/fail", failRequest{Lease: l, Reason: reason}, nil)
}

// Quarantined implements Queue.
func (c *Client) Quarantined() ([]QuarantineEntry, error) {
	var entries []QuarantineEntry
	if err := c.get("/quarantine", &entries); err != nil {
		return nil, err
	}
	return entries, nil
}

// Requeue implements Queue.
func (c *Client) Requeue(unit int) error {
	return c.post("/quarantine", quarActionRequest{Unit: unit, Action: "requeue"}, nil)
}

// Drop implements Queue.
func (c *Client) Drop(unit int) error {
	return c.post("/quarantine", quarActionRequest{Unit: unit, Action: "drop"}, nil)
}

// Follow streams the coordinator's live report (GET /v1/report?follow=1)
// to w until the campaign drains or the stream breaks. Frames arrive
// as rendered reports separated by FollowSeparator; they are copied
// through verbatim, separator included. The streaming request runs on
// a timeout-less client (sharing the dial transport): the stream is
// expected to outlive any per-request timeout.
func (c *Client) Follow(w io.Writer, interval time.Duration) error {
	path := "/report?follow=1"
	if interval > 0 {
		path += "&interval=" + interval.String()
	}
	req, err := http.NewRequest("GET", c.base+c.prefix+path, nil)
	if err != nil {
		return fmt.Errorf("dispatch: follow: %w", err)
	}
	if c.token != "" {
		req.Header.Set(CampaignTokenHeader, c.token)
	}
	hc := &http.Client{Transport: c.hc.Transport}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("dispatch: follow: %w", err)
	}
	defer resp.Body.Close()
	if err := responseErr(resp); err != nil {
		return err
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

// do issues one request under the client's route prefix, presenting
// the campaign token when it carries one.
func (c *Client) do(method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+c.prefix+path, rd)
	if err != nil {
		return nil, fmt.Errorf("dispatch: %s %s: %w", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.token != "" {
		req.Header.Set(CampaignTokenHeader, c.token)
	}
	// The "http.client" fault point simulates dropped connections and
	// slow links on the worker side of the protocol.
	if err := faultpoint.Check("http.client"); err != nil {
		return nil, fmt.Errorf("dispatch: %s %s%s: %w", method, c.prefix, path, err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("dispatch: %s %s%s: %w", method, c.prefix, path, err)
	}
	return resp, nil
}

func (c *Client) get(path string, out any) error {
	resp, err := c.do("GET", path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := responseErr(resp); err != nil {
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *Client) post(path string, body any, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("dispatch: encode %s body: %w", path, err)
	}
	resp, err := c.do("POST", path, data)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := responseErr(resp); err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// statusError is a coordinator answer outside 2xx that carries no
// queue sentinel.
type statusError struct {
	code   int
	status string
	detail string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("dispatch: coordinator returned %s: %s", e.status, e.detail)
}

// transientAnswer reports whether a request failed in a way a retry may
// fix: the transport failed (or a fault was injected there), or the
// coordinator answered 5xx without a queue sentinel.
func transientAnswer(err error) bool {
	var se *statusError
	if errors.As(err, &se) {
		return se.code >= 500
	}
	var ue *url.Error
	return errors.As(err, &ue) || errors.Is(err, faultpoint.ErrInjected)
}

// responseErr maps an error response back to the queue sentinels.
func responseErr(resp *http.Response) error {
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return nil
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	detail := strings.TrimSpace(string(msg))
	switch resp.Header.Get(errHeader) {
	case errValNoWork:
		return ErrNoWork
	case errValDrained:
		return ErrDrained
	case errValLeaseLost:
		return fmt.Errorf("%w (%s)", ErrLeaseLost, detail)
	case errValDuplicate:
		return fmt.Errorf("%w (%s)", ErrDuplicateSubmit, detail)
	case errValConfigMismatch:
		return fmt.Errorf("%w (%s)", resultio.ErrConfigMismatch, detail)
	case errValBadCheckpoint:
		return fmt.Errorf("%w (%s)", resultio.ErrBadCheckpoint, detail)
	case errValCanceled:
		return fmt.Errorf("%w (%s)", ErrCanceled, detail)
	case errValUnknownCampaign:
		return fmt.Errorf("%w (%s)", ErrUnknownCampaign, detail)
	case errValBadCampaignToken:
		return fmt.Errorf("%w (%s)", ErrBadCampaignToken, detail)
	}
	return &statusError{code: resp.StatusCode, status: resp.Status, detail: detail}
}

package plannersvc

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"tableau/internal/planner"
	"tableau/internal/table"
)

// Client talks to a remote planner daemon. The remote path is hardened
// for the paper's Sec. 7.1 offloaded deployment: each attempt is
// individually bounded, transient failures are retried with bounded
// exponential backoff and deterministic jitter, a small circuit
// breaker keeps a dead daemon from stalling every planning operation,
// and PlanWithFallback degrades to the in-process planner — planning
// is a control-plane convenience, never a hard dependency of the host.
type Client struct {
	// BaseURL is the daemon's root, e.g. "http://planner:7077".
	BaseURL string
	// HTTPClient defaults to a plain client; per-attempt deadlines come
	// from AttemptTimeout, so no overall Timeout is set.
	HTTPClient *http.Client

	// AttemptTimeout bounds each individual attempt, covering dial,
	// request, and full body read. Default 5 s.
	AttemptTimeout time.Duration
	// MaxAttempts is the total number of tries per Plan call (first
	// attempt included). Default 4.
	MaxAttempts int
	// BackoffBase is the sleep before the second attempt; it doubles
	// per retry up to BackoffMax. Defaults 50 ms and 2 s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// JitterSeed makes the backoff jitter deterministic, keeping
	// simulation-driven callers reproducible. The zero seed is valid
	// (and fixed) — two clients with equal seeds back off identically.
	JitterSeed int64
	// Breaker, when set, is consulted before every attempt and fed the
	// outcome. Share one breaker across clients talking to the same
	// daemon.
	Breaker *Breaker
	// Logf receives retry/fallback diagnostics; nil means silent.
	Logf func(format string, args ...any)
}

func (c *Client) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// planError carries the retry classification of a failed attempt.
type planError struct {
	err       error
	retryable bool
}

func (e *planError) Error() string { return e.err.Error() }
func (e *planError) Unwrap() error { return e.err }

// Plan sends the request and returns the decoded scheduling table along
// with the response metadata. The table arrives in the dispatcher's
// binary format and is fully validated by Decode. Equivalent to
// PlanContext with a background context.
func (c *Client) Plan(req PlanRequest) (*table.Table, *PlanResponse, error) {
	return c.PlanContext(context.Background(), req)
}

// PlanContext is Plan with caller-controlled cancellation: the context
// bounds the whole call including backoff sleeps, while AttemptTimeout
// bounds each attempt.
func (c *Client) PlanContext(ctx context.Context, req PlanRequest) (*table.Table, *PlanResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	attempts := c.MaxAttempts
	if attempts <= 0 {
		attempts = 4
	}
	rng := c.newJitter()
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if c.Breaker != nil && !c.Breaker.Allow() {
			if lastErr != nil {
				return nil, nil, fmt.Errorf("%w (last error: %v)", ErrCircuitOpen, lastErr)
			}
			return nil, nil, ErrCircuitOpen
		}
		tbl, resp, err := c.attempt(ctx, body)
		if err == nil {
			if c.Breaker != nil {
				c.Breaker.RecordSuccess()
			}
			return tbl, resp, nil
		}
		if ctx.Err() != nil {
			// The caller gave up mid-attempt: the failure is
			// cancellation-induced and says nothing about the daemon.
			// Feeding it to the breaker would latch a half-open circuit
			// shut (or restart an open one's cooldown), and retrying
			// would burn attempts on a request nobody is waiting for.
			if c.Breaker != nil {
				c.Breaker.RecordCancel()
			}
			return nil, nil, ctx.Err()
		}
		pe, ok := err.(*planError)
		if ok && !pe.retryable {
			// The daemon answered definitively (bad request, rejected
			// population): the service is healthy, the answer is final.
			if c.Breaker != nil {
				c.Breaker.RecordSuccess()
			}
			return nil, nil, pe.err
		}
		if c.Breaker != nil {
			c.Breaker.RecordFailure()
		}
		lastErr = err
		if attempt == attempts-1 {
			break
		}
		d := c.backoff(attempt, rng)
		c.logf("plannersvc: attempt %d/%d failed (%v), retrying in %v", attempt+1, attempts, err, d)
		select {
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		case <-time.After(d):
		}
	}
	return nil, nil, fmt.Errorf("plannersvc: %d attempts failed: %w", attempts, lastErr)
}

// newJitter returns the per-call jitter source; one is created at the
// top of each PlanContext so equal seeds give equal schedules.
func (c *Client) newJitter() *rand.Rand {
	return rand.New(rand.NewSource(c.JitterSeed))
}

// backoff returns the sleep before retry number attempt+1: exponential
// from BackoffBase, capped at BackoffMax, with deterministic jitter in
// [d/2, d).
func (c *Client) backoff(attempt int, rng *rand.Rand) time.Duration {
	base := c.BackoffBase
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := c.BackoffMax
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base << uint(attempt)
	if d > max || d <= 0 {
		d = max
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// attempt performs one bounded request/decode cycle.
func (c *Client) attempt(ctx context.Context, body []byte) (*table.Table, *PlanResponse, error) {
	timeout := c.AttemptTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	httpReq, err := http.NewRequestWithContext(actx, http.MethodPost, c.BaseURL+"/plan", bytes.NewReader(body))
	if err != nil {
		return nil, nil, &planError{err: err, retryable: false}
	}
	httpReq.Header.Set("Content-Type", "application/json")
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	httpResp, err := hc.Do(httpReq)
	if err != nil {
		// Transport-level failure: refused, reset, DNS, attempt timeout.
		return nil, nil, &planError{err: err, retryable: true}
	}
	defer httpResp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(httpResp.Body, 64<<20))
	if err != nil {
		// Slow or truncated body; the attempt deadline fires here too.
		return nil, nil, &planError{err: fmt.Errorf("plannersvc: reading response: %w", err), retryable: true}
	}
	if httpResp.StatusCode != http.StatusOK {
		var e errorResponse
		msg := fmt.Sprintf("HTTP %d", httpResp.StatusCode)
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		err := fmt.Errorf("plannersvc: remote planning failed: %s", msg)
		// 5xx is the daemon struggling (worth retrying); 4xx is a
		// definitive verdict on this request (422: planner rejection).
		return nil, nil, &planError{err: err, retryable: httpResp.StatusCode >= 500}
	}
	var resp PlanResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, nil, &planError{err: fmt.Errorf("plannersvc: bad response body: %w", err), retryable: true}
	}
	bin, err := base64.StdEncoding.DecodeString(resp.Table)
	if err != nil {
		return nil, nil, &planError{err: fmt.Errorf("plannersvc: bad table encoding: %w", err), retryable: true}
	}
	tbl, err := table.DecodeBytes(bin)
	if err != nil {
		// Corrupt tables are treated as transport damage, not a verdict:
		// a healthy daemon never emits one, so retrying is the right bet.
		return nil, nil, &planError{err: fmt.Errorf("plannersvc: remote table rejected: %w", err), retryable: true}
	}
	return tbl, &resp, nil
}

// PlanFunc adapts the client to the control plane's planning hook
// (assignable to core.PlanFunc, e.g. Controller.PlanVia): specs and
// options go out as a PlanRequest, and the response — remote or
// local-fallback — comes back as a *planner.Result carrying the decoded
// table and guarantees. Only Table and Guarantees are populated; that
// is the contract the control plane consumes.
func (c *Client) PlanFunc() func(specs []planner.VCPUSpec, opts planner.Options) (*planner.Result, error) {
	return func(specs []planner.VCPUSpec, opts planner.Options) (*planner.Result, error) {
		if len(opts.Affinity) > 0 {
			// The wire format cannot express affinity sets; shipping the
			// request without them would silently drop a placement
			// constraint. Plan on-host instead.
			return planner.Plan(specs, opts)
		}
		req := PlanRequest{
			Cores:                opts.Cores,
			TableLengthNS:        opts.TableLength,
			Peephole:             opts.Peephole,
			SplitCompensationPPM: opts.SplitCompensationPPM,
			SplitRotation:        opts.SplitRotation,
		}
		for _, sp := range specs {
			req.VMs = append(req.VMs, VMRequest{
				Name:          sp.Name,
				UtilNum:       sp.Util.Num,
				UtilDen:       sp.Util.Den,
				LatencyGoalNS: sp.LatencyGoal,
				Capped:        sp.Capped,
			})
		}
		tbl, resp, err := c.PlanWithFallback(context.Background(), req)
		if err != nil {
			return nil, err
		}
		res := &planner.Result{Table: tbl}
		for _, g := range resp.Guarantees {
			res.Guarantees = append(res.Guarantees, table.Guarantee{
				VCPU: g.VCPU, Service: g.ServiceNS, WindowLen: g.WindowNS, MaxBlackout: g.MaxBlackout,
			})
		}
		return res, nil
	}
}

// PlanWithFallback tries the remote daemon and, if every attempt fails
// (or the breaker is open), plans locally with the in-process planner.
// The local table is round-tripped through the binary codec so both
// paths hand the caller a table with identical decode-time semantics.
// The response's Source field reports "local" for a fallback result.
// A non-retryable remote rejection (4xx) is NOT retried locally: the
// population was judged inadmissible, and the local planner would only
// repeat the verdict.
func (c *Client) PlanWithFallback(ctx context.Context, req PlanRequest) (*table.Table, *PlanResponse, error) {
	tbl, resp, err := c.PlanContext(ctx, req)
	if err == nil {
		return tbl, resp, nil
	}
	if pe, ok := err.(*planError); ok && !pe.retryable {
		return nil, nil, err
	}
	if ctx.Err() != nil {
		return nil, nil, err
	}
	c.logf("plannersvc: remote planning unavailable (%v), falling back to local planner", err)
	specs, opts, ierr := req.toPlannerInput()
	if ierr != nil {
		return nil, nil, ierr
	}
	res, perr := planner.Plan(specs, opts)
	if perr != nil {
		return nil, nil, fmt.Errorf("plannersvc: remote failed (%v); local fallback failed: %w", err, perr)
	}
	var buf bytes.Buffer
	if err := res.Table.Encode(&buf); err != nil {
		return nil, nil, err
	}
	ltbl, derr := table.DecodeBytes(buf.Bytes())
	if derr != nil {
		return nil, nil, derr
	}
	lresp := &PlanResponse{
		Stage:         res.Stage.String(),
		TableLengthNS: ltbl.Len,
		TableBytes:    buf.Len(),
		Splits:        len(res.Splits),
		SwitchesSaved: res.SwitchesSaved,
		Table:         base64.StdEncoding.EncodeToString(buf.Bytes()),
		Source:        "local",
	}
	for _, g := range res.Guarantees {
		lresp.Guarantees = append(lresp.Guarantees, GuaranteeInfo{
			VCPU: g.VCPU, ServiceNS: g.Service, WindowNS: g.WindowLen, MaxBlackout: g.MaxBlackout,
		})
	}
	return ltbl, lresp, nil
}

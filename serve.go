package dspatch

import (
	"context"

	"dspatch/internal/service"
)

// Service re-exports: the simulation-as-a-service daemon (cmd/dspatchd) and
// its Go client. Serve runs the same engine the library functions use, so a
// job submitted over HTTP returns exactly what the equivalent Fig*/Simulate
// call returns, and the two share one memo and persistent run cache.
type (
	// ServiceConfig parameterizes Serve/cmd/dspatchd (addr, job workers,
	// queue depth, cache dir, drain timeout).
	ServiceConfig = service.Config
	// ServiceClient is a Go client for a running daemon.
	ServiceClient = service.Client
	// ServiceRunSpec is the POST /v1/runs body: one simulation request.
	ServiceRunSpec = service.RunSpec
	// ServiceScaleSpec is the POST /v1/experiments/{id} body: scale knobs.
	ServiceScaleSpec = service.ScaleSpec
	// ServiceJob is the wire form of a submitted job.
	ServiceJob = service.JobView
	// ServiceJobStatus is a job lifecycle state.
	ServiceJobStatus = service.JobStatus
	// ServiceHealth is the /healthz body.
	ServiceHealth = service.Health
	// ServiceFleetConfig makes Serve a campaign coordinator over worker
	// daemons (dspatchd -coordinator): lease-based dispatch, retry and
	// re-dispatch on failure, byte-identical streams.
	ServiceFleetConfig = service.FleetConfig
	// ServiceRetryPolicy governs client-side 503 retries: capped exponential
	// backoff with jitter, honoring Retry-After.
	ServiceRetryPolicy = service.RetryPolicy
)

// Job lifecycle states.
const (
	JobQueued   = service.StatusQueued
	JobRunning  = service.StatusRunning
	JobDone     = service.StatusDone
	JobFailed   = service.StatusFailed
	JobCanceled = service.StatusCanceled
)

// Serve runs the simulation daemon on cfg.Addr until ctx is canceled, then
// drains gracefully: intake stops, running jobs get cfg.DrainTimeout to
// finish, stragglers are canceled mid-simulation. It returns nil after a
// clean drain.
func Serve(ctx context.Context, cfg ServiceConfig) error {
	return service.ListenAndServe(ctx, cfg)
}

// NewServiceClient returns a client for the daemon at baseURL
// (e.g. "http://127.0.0.1:8491") with the default retry policy: transient
// 503 load-shedding answers (full queue, drain in progress) are retried
// with capped exponential backoff and jitter, honoring the daemon's
// Retry-After hint, bounded by the request context. Set Retry to nil (or a
// custom ServiceRetryPolicy) to change that.
func NewServiceClient(baseURL string) *ServiceClient {
	c := service.NewClient(baseURL)
	c.Retry = service.DefaultRetryPolicy()
	return c
}

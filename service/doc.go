// Package service turns the repro planning library into a long-running
// plan server: an HTTP JSON API backed by a bounded worker pool with
// admission control, singleflight coalescing of identical in-flight
// queries, and live metrics.
//
// # Endpoints
//
//	POST /plan           optimize one query document (PlanRequest → PlanResponse)
//	POST /plan?explain=1 same, plus a phase/span trace of the planning call
//	POST /batch          optimize a batch sequentially under one worker slot
//	GET  /healthz        liveness + drain state + live gauges (JSON)
//	GET  /metrics        Prometheus text exposition of server and planner counters
//	GET  /debug/plans    ring of the slowest plans served (JSON, slowest first)
//	GET  /debug/history  persistent planning-cost history, merged live (JSON)
//
// # Admission control
//
// Every enumeration runs on one of a fixed number of worker slots
// (Config.Workers). Requests beyond the workers wait in a bounded
// admission queue (Config.QueueDepth); when the queue is full the
// request is rejected immediately with 429 and a Retry-After hint
// instead of piling up memory until collapse. Each request carries a
// deadline (the server default, or the request's own timeout_ms capped
// by Config.MaxTimeout); a deadline that expires while queued or
// mid-enumeration cancels the work — the context is polled inside every
// solver's enumeration loops — and reports 504.
//
// # Request coalescing
//
// Identical queries that arrive while an equivalent one is already
// planning do not enqueue a second enumeration: they are coalesced onto
// the in-flight call (singleflight) and all receive its result. The
// coalescing key is the canonical graph fingerprint the plan cache
// already uses, combined with the request's planning options, so a
// thundering herd of the same query shape costs one worker slot and one
// enumeration; the followers are marked "coalesced": true in their
// responses. Tree documents (non-inner-join queries) coalesce on a
// canonical encoding of the decoded document instead. /batch items log
// the same fingerprint a /plan request for the same query logs: a
// 64-bit FNV-1a hash of the key, as 16 hex digits.
//
// # Wire codec
//
// Request bodies in the canonical JSON subset — exact-case known keys,
// no key twice, no null, printable-ASCII strings without escapes,
// JSON-grammar numbers, plain integers for index lists — decode in one
// pass without reflection (repro.DecodeQueryJSON for the query
// document, internal/jsonscan for the /plan and /batch envelopes). On
// anything else the fast decoder declines and encoding/json decodes
// the body as it always has, so malformed requests keep encoding/json's
// error text and their 400. A fast decode accepts only what
// encoding/json accepts and yields a reflect.DeepEqual value.
//
// Responses are appended straight from the plan tree into a pooled
// buffer. The bytes are exactly what json.NewEncoder with
// SetEscapeHTML(false) writes for the exported wire types
// (PlanResponse, BatchResponse): encoding/json's float format and
// omitempty rules, names that need escaping and the explain trace
// rendered by encoding/json itself, and an empty body where
// encoding/json refuses a non-finite number. TestWireParity,
// FuzzQueryDecode and FuzzPlanHandler hold the codec to that rule.
//
// # Observability
//
// POST /plan?explain=1 attaches an explain trace to the planning call
// and returns it in the response's trace field: one span per planner
// phase (route, cache_lookup, enumerate — or per iterdp compression
// round — fallback, materialize) with wall time and work counters.
// Explain requests coalesce in their own population, so an explain
// follower always inherits a real trace from a traced leader; a cache
// hit returns a trace of just the lookup. Config.TraceSample
// additionally traces 1 in N ordinary requests, opportunistically,
// for the debug ring.
//
// /metrics carries, beyond the flat server and planner counters, the
// dimensional planner_plan_seconds histogram family: planning latency
// per shape × algorithm × relation-count bucket, cache hits included
// (with a parallel _cache_hits_total counter separating them). When
// Config.HistoryPath is set those series persist across restarts: the
// file is loaded at startup as the baseline, and baseline + live
// counts are saved every Config.HistoryInterval and at Shutdown, so
// /debug/history answers "what does planning this kind of query cost
// here" with p50/p99 spanning process lifetimes. An unreadable or
// version-mismatched history file disables persistence (never
// overwriting the file) and is reported through the logger.
//
// /debug/plans is a bounded ring (Config.RingSize) of the slowest
// plans seen so far — fingerprint, shape, algorithm, relations,
// duration, pairs, and the trace when the request was traced. The ring
// evicts strictly by duration, so it converges on the worst requests
// served, not the latest. Server.DebugHandler bundles the debug
// surfaces with net/http/pprof and GET /debug/runtime for a separate
// listener (dpserved -debug-addr); keep that listener loopback-only.
//
// Logging is structured (log/slog via Config.Logger): one Info "plan"
// record per planning request carrying the request id, fingerprint,
// shape, algorithm, duration, and outcome; requests at least
// Config.SlowPlanThreshold slow are upgraded to Warn with phase
// totals; transport-level access records sit at Debug.
//
// # SLOs and degradation
//
// Requests may carry plan_budget_ms, a planning-time SLO the planner's
// budget router satisfies by degrading to a cheaper algorithm rung
// (exact → iterdp → greedy) when the predicted cost of the topology
// route would miss the budget; the response's stats carry slo_rung,
// slo_degraded, and slo_met, and /metrics exports the
// planner_slo_{met,missed,degraded}_total counters.
//
// Config.Overload enables the server-wide overload degradation ladder
// on top of that per-request contract. Pressure is the max of two
// signals — admission-queue depth as a fraction of capacity (the
// leading indicator) and the windowed p99 of planning latency against
// OverloadConfig.TargetP99 (the trailing confirmation) — and maps to
// four tiers:
//
//	tier 0  normal   — requests plan as asked
//	tier 1  tighten  — OverloadConfig.DegradedBudget is imposed on (or
//	                   caps) each request's plan budget
//	tier 2  greedy   — every request plans greedy-only
//	tier 3  shed     — new requests are rejected with 429 + Retry-After
//
// Escalation is immediate; de-escalation steps down one tier at a time
// after pressure has stayed below the current tier for
// OverloadConfig.Hold — the asymmetry is the hysteresis that keeps a
// borderline server from flapping. Latency alone never sheds (a
// slow-but-keeping-up server degrades quality instead); tier 3 is
// reachable only through a saturated queue. Every degraded response is
// marked — pressure_tier on the wire, slo_rung/algorithm in stats —
// and the ladder exports dpserved_pressure_tier,
// dpserved_pressure_transitions_total{tier}, and
// dpserved_pressure_shed_total. cmd/loadgen -retries honors the
// Retry-After hint with jittered exponential backoff, and CI's
// overload soak gate drives a server past exact-planning saturation
// and requires ≥ 99% availability with tiers 1 and 2 engaged.
//
// Config.SnapshotPath adds warm-start across restarts: the plan cache
// is snapshotted to disk (atomic temp+rename, versioned) every
// SnapshotInterval and at Shutdown, and restored at startup, so a
// rolling restart resumes with a hot cache instead of stampeding the
// solvers. Validation is strict — a corrupt or version-mismatched
// snapshot disables persistence loudly and is never overwritten, the
// same contract as the history file.
//
// The degrade-and-recover cycle is itself under test: the
// internal/chaos harness injects faults (enumeration delay, pool
// starvation, snapshot truncation) at named sites inside the serving
// path, and the service chaos suite asserts the ladder engages,
// degrades, marks every degraded plan, and returns to tier 0 when the
// fault clears. Injection sites are arm-gated — one atomic load when
// disarmed — which the chaosgate static analyzer enforces.
//
// # Shutdown
//
// Server.Shutdown flips the server into draining mode — /healthz turns
// 503 so load balancers stop routing, and new planning requests are
// refused with 503 — then waits for the in-flight requests to finish
// (their enumerations keep their own deadlines) and saves the
// planning-cost history. cmd/dpserved wires SIGINT/SIGTERM to exactly
// this, so a rolling restart never truncates a plan mid-flight.
package service

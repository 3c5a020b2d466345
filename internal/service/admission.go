package service

import (
	"fmt"
	"math"
	"net/http"
	"time"
)

// Admission control: the daemon's self-protection layer. Two independent
// gates run before a submission is even parsed into the job table:
//
//   - Per-client token-bucket quotas (Config.QuotaRate/QuotaBurst, default
//     off). Clients identify themselves with the X-Dspatch-Client header;
//     requests without one share a single anonymous bucket, so an unlabeled
//     crowd is collectively bounded rather than individually unbounded.
//   - Campaign watermarks (Config.CampaignHighWater/LowWater): campaigns
//     are the expensive jobs — each pins an NDJSON record stream and a
//     dispatcher — so once the active count reaches the high watermark, new
//     campaigns shed until the count falls to the low watermark. The
//     hysteresis gap keeps the daemon from flapping at the boundary.
//
// Both gates shed with 503 + Retry-After, the same contract as a full job
// queue, so the client's RetryPolicy (see client.go) handles all three
// identically: back off and retry.

// clientIDHeader carries the client-supplied identity quotas key on.
const clientIDHeader = "X-Dspatch-Client"

// maxQuotaBuckets bounds the quota table so unique client IDs cannot grow
// daemon memory without bound; past it, the longest-idle bucket is evicted
// (an evicted client starts over with a full burst).
const maxQuotaBuckets = 4096

// quotaBucket is one client's token bucket.
type quotaBucket struct {
	tokens float64
	last   time.Time
}

// quotaTable is the per-client token-bucket table. Refill happens lazily on
// access: tokens = min(burst, tokens + rate*elapsed).
type quotaTable struct {
	rate    float64 // tokens per second
	burst   float64
	buckets map[string]*quotaBucket
}

func newQuotaTable(rate float64, burst int) *quotaTable {
	b := float64(burst)
	if b < 1 {
		b = 1
	}
	return &quotaTable{rate: rate, burst: b, buckets: map[string]*quotaBucket{}}
}

// allow spends one token from client's bucket. When the bucket is dry it
// reports false plus the whole seconds until a token accrues — the
// Retry-After value. Caller holds the server's mu.
func (q *quotaTable) allow(client string, now time.Time) (bool, int) {
	bk := q.buckets[client]
	if bk == nil {
		if len(q.buckets) >= maxQuotaBuckets {
			q.evictIdlest()
		}
		bk = &quotaBucket{tokens: q.burst, last: now}
		q.buckets[client] = bk
	} else {
		bk.tokens += q.rate * now.Sub(bk.last).Seconds()
		if bk.tokens > q.burst {
			bk.tokens = q.burst
		}
		bk.last = now
	}
	if bk.tokens >= 1 {
		bk.tokens--
		return true, 0
	}
	retry := int(math.Ceil((1 - bk.tokens) / q.rate))
	if retry < 1 {
		retry = 1
	}
	return false, retry
}

func (q *quotaTable) evictIdlest() {
	var oldest string
	var oldestAt time.Time
	for id, bk := range q.buckets {
		if oldest == "" || bk.last.Before(oldestAt) {
			oldest, oldestAt = id, bk.last
		}
	}
	delete(q.buckets, oldest)
}

// admit runs every admission gate for a submission of the given job kind,
// writing the 503 itself when the request is shed. isCampaign additionally
// applies the campaign watermarks.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, isCampaign bool) bool {
	now := time.Now()
	s.mu.Lock()
	if s.quotas != nil {
		ok, retry := s.quotas.allow(r.Header.Get(clientIDHeader), now)
		if !ok {
			s.mu.Unlock()
			s.rejected.Add(1)
			s.quotaRejected.Add(1)
			w.Header().Set("Retry-After", fmt.Sprintf("%d", retry))
			httpError(w, http.StatusServiceUnavailable, "client quota exhausted")
			return false
		}
	}
	if isCampaign && s.cfg.CampaignHighWater > 0 {
		n := int(s.activeCampaigns.Load())
		if s.campShedding && n <= s.cfg.CampaignLowWater {
			s.campShedding = false
		}
		if !s.campShedding && n >= s.cfg.CampaignHighWater {
			s.campShedding = true
		}
		if s.campShedding {
			s.mu.Unlock()
			s.rejected.Add(1)
			s.campaignsShed.Add(1)
			w.Header().Set("Retry-After", "2")
			httpError(w, http.StatusServiceUnavailable,
				fmt.Sprintf("campaign backlog at high watermark (%d active)", n))
			return false
		}
	}
	s.mu.Unlock()
	return true
}

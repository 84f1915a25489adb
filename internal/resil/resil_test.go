package resil

import (
	"sync"
	"testing"
	"time"

	"github.com/icsnju/metamut-go/internal/obs"
)

func TestRetrierBoundsAttempts(t *testing.T) {
	r := Policy{MaxAttempts: 4}.Retrier("stage", 1)
	granted := 0
	for {
		if _, ok := r.Next(); !ok {
			break
		}
		granted++
	}
	if granted != 3 { // 4 attempts total = 3 retries
		t.Fatalf("granted %d retries, want 3", granted)
	}
	if _, ok := r.Next(); ok {
		t.Fatal("retrier granted a retry past its budget")
	}
}

func TestRetrierDeterministicJitter(t *testing.T) {
	delays := func(seed int64) []time.Duration {
		r := DefaultPolicy().Retrier("impl", seed)
		var ds []time.Duration
		for {
			d, ok := r.Next()
			if !ok {
				return ds
			}
			ds = append(ds, d)
		}
	}
	a, b := delays(7), delays(7)
	if len(a) == 0 {
		t.Fatal("no delays")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := delays(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter")
	}
}

func TestRetrierBackoffEnvelope(t *testing.T) {
	p := Policy{MaxAttempts: 10, BaseDelay: 100 * time.Millisecond,
		MaxDelay: 800 * time.Millisecond, Multiplier: 2, Jitter: 0.25}
	r := p.Retrier("s", 3)
	want := []time.Duration{100, 200, 400, 800, 800, 800, 800, 800, 800}
	for i, base := range want {
		base *= time.Millisecond
		d, ok := r.Next()
		if !ok {
			t.Fatalf("budget exhausted early at %d", i)
		}
		lo := time.Duration(float64(base) * 0.75)
		hi := time.Duration(float64(base) * 1.25)
		if d < lo || d > hi {
			t.Fatalf("retry %d delay %v outside [%v, %v]", i, d, lo, hi)
		}
	}
}

func TestRetrierCountsRetriesInRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	p := Policy{MaxAttempts: 3, Registry: reg}
	r := p.Retrier("test-gen", 1)
	r.Next()
	r.Next()
	if got := reg.Counter("resil_retries_total", "stage").With("test-gen").Value(); got != 2 {
		t.Fatalf("resil_retries_total{test-gen} = %d, want 2", got)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, Cooldown: 2}, reg)
	if b.State() != Closed {
		t.Fatal("new breaker not closed")
	}
	// Three consecutive failures trip it open.
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker denied call %d", i)
		}
		b.Failure()
	}
	if b.State() != Open {
		t.Fatalf("state after threshold failures = %v, want open", b.State())
	}
	// Cooldown: the first denial counts, the second admits a probe.
	if b.Allow() {
		t.Fatal("open breaker admitted a call before cooldown")
	}
	if !b.Allow() {
		t.Fatal("breaker did not admit a half-open probe after cooldown")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state during probe = %v, want half-open", b.State())
	}
	// Probe fails: reopen.
	b.Failure()
	if b.State() != Open {
		t.Fatal("failed probe did not reopen the breaker")
	}
	// Next probe succeeds: close.
	b.Allow() // denial 1
	if !b.Allow() {
		t.Fatal("no second probe")
	}
	b.Success()
	if b.State() != Closed {
		t.Fatal("successful probe did not close the breaker")
	}
	if got := reg.Counter("resil_breaker_trips_total").With().Value(); got != 2 {
		t.Fatalf("trips = %d, want 2", got)
	}
	if got := reg.Counter("resil_deferred_total").With().Value(); got != 2 {
		t.Fatalf("deferred = %d, want 2", got)
	}
	if got := reg.Gauge("resil_breaker_state").With().Value(); got != int64(Closed) {
		t.Fatalf("resil_breaker_state = %d, want %d", got, Closed)
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: 1}, nil)
	b.Allow()
	b.Failure() // open
	if !b.Allow() {
		t.Fatal("probe not admitted")
	}
	if b.Allow() {
		t.Fatal("second concurrent probe admitted")
	}
	b.Success()
	if b.State() != Closed {
		t.Fatal("probe success did not close")
	}
}

func TestBreakerConcurrent(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 4, Cooldown: 4}, obs.NewRegistry())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if b.Allow() {
					if (g+i)%3 == 0 {
						b.Failure()
					} else {
						b.Success()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	b.State() // must not race
}

func TestQuarantineStrikeAndParole(t *testing.T) {
	reg := obs.NewRegistry()
	q := NewQuarantine(QuarantineConfig{StrikeLimit: 2, Parole: 5}, reg)
	if !q.Allowed("bad") {
		t.Fatal("clean offender denied")
	}
	if q.Strike("bad") {
		t.Fatal("first strike quarantined")
	}
	if !q.Strike("bad") {
		t.Fatal("second strike did not quarantine")
	}
	if q.Allowed("bad") {
		t.Fatal("quarantined offender allowed")
	}
	if got := q.Quarantined(); len(got) != 1 || got[0] != "bad" {
		t.Fatalf("Quarantined() = %v", got)
	}
	for i := 0; i < 5; i++ {
		q.Tick()
	}
	if !q.Allowed("bad") {
		t.Fatal("offender not paroled after its period")
	}
	if q.Strikes("bad") != 0 {
		t.Fatal("parole did not clear the strike record")
	}
	if got := reg.Counter("resil_quarantines_total", "id").With("bad").Value(); got != 1 {
		t.Fatalf("quarantines = %d, want 1", got)
	}
	if got := reg.Counter("resil_paroles_total", "id").With("bad").Value(); got != 1 {
		t.Fatalf("paroles = %d, want 1", got)
	}
}

func TestQuarantineNilReceiver(t *testing.T) {
	var q *Quarantine
	q.Tick()
	if !q.Allowed("x") {
		t.Fatal("nil quarantine denied")
	}
	if q.Strike("x") {
		t.Fatal("nil quarantine quarantined")
	}
	if q.Quarantined() != nil || q.Strikes("x") != 0 {
		t.Fatal("nil quarantine recorded state")
	}
}

func TestHashDeterministic(t *testing.T) {
	if Hash(1, 2, 3) != Hash(1, 2, 3) {
		t.Fatal("Hash not deterministic")
	}
	if Hash(1, 2, 3) == Hash(3, 2, 1) {
		t.Fatal("Hash ignores order")
	}
}

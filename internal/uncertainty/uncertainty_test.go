package uncertainty

import (
	"math"
	"strings"
	"testing"
)

func TestLedgerTrustChain(t *testing.T) {
	l := &Ledger{}
	l.Record(Entry{Stage: "merge", Tracked: true, InfoLost: 0})
	l.Record(Entry{Stage: "impute", Tracked: true, BiasIntroduced: 0.1, VarianceIntroduced: 0.2, InfoLost: 0.1})
	if !l.Veracious() {
		t.Error("fully tracked ledger should be veracious")
	}
	if l.FirstUntracked() != "" {
		t.Error("no untracked stage expected")
	}
	l.Record(Entry{Stage: "blackbox", Tracked: false})
	if l.Veracious() {
		t.Error("ledger with untracked stage should not be veracious")
	}
	if l.FirstUntracked() != "blackbox" {
		t.Errorf("FirstUntracked = %q", l.FirstUntracked())
	}
	if got := l.InfoRetained(); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("InfoRetained = %v, want 0.9", got)
	}
	if len(l.Entries()) != 3 {
		t.Error("Entries length wrong")
	}
	s := l.String()
	if !strings.Contains(s, "BROKEN") || !strings.Contains(s, "blackbox") {
		t.Errorf("String missing trust verdict: %s", s)
	}
}

func TestLedgerInfoRetainedClamps(t *testing.T) {
	l := &Ledger{}
	l.Record(Entry{Stage: "weird", InfoLost: 2, Tracked: true})
	if got := l.InfoRetained(); got != 0 {
		t.Errorf("InfoRetained with loss > 1 = %v, want 0", got)
	}
	l2 := &Ledger{}
	l2.Record(Entry{Stage: "weird", InfoLost: -1, Tracked: true})
	if got := l2.InfoRetained(); got != 1 {
		t.Errorf("InfoRetained with negative loss = %v, want 1", got)
	}
}

func TestLedgerStringIntact(t *testing.T) {
	l := &Ledger{}
	l.Record(Entry{Stage: "ok", Tracked: true})
	if !strings.Contains(l.String(), "INTACT") {
		t.Error("intact chain should render INTACT")
	}
}

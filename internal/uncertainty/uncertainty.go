// Package uncertainty implements the uncertainty ledger Section I-B and IV
// call for: per-stage records of how much information each pipeline phase
// destroys — the bookkeeping whose cost the paper identifies as the reason
// uncertainty models are usually unavailable to the analytics phase ("one
// can keep track of the uncertainty associated to the reconstructed data
// only to some point, because of the cost and the operational difficulties
// of such a task").
package uncertainty

import (
	"fmt"
	"strings"
)

// Entry is one stage's record in the uncertainty ledger.
type Entry struct {
	Stage       string
	Description string
	// BiasIntroduced estimates systematic error added by the stage (e.g.
	// mean imputation pulling values toward the column mean).
	BiasIntroduced float64
	// VarianceIntroduced estimates stochastic error added by the stage.
	VarianceIntroduced float64
	// InfoLost is the fraction of information discarded (e.g. dropped rows
	// or features); in [0, 1].
	InfoLost float64
	// Tracked reports whether the stage maintained an uncertainty model for
	// its output. Once any stage reports Tracked = false, downstream
	// veracity claims become unsupported (the paper's broken trust chain).
	Tracked bool
}

// Ledger accumulates per-stage entries along a pipeline run.
type Ledger struct {
	entries []Entry
}

// Record appends an entry.
func (l *Ledger) Record(e Entry) { l.entries = append(l.entries, e) }

// Entries returns a copy of the recorded entries.
func (l *Ledger) Entries() []Entry { return append([]Entry(nil), l.entries...) }

// Veracious reports whether every stage maintained its uncertainty model —
// the precondition for the analytics phase to annotate predictions with
// veracity, as Section IV demands.
func (l *Ledger) Veracious() bool {
	for _, e := range l.entries {
		if !e.Tracked {
			return false
		}
	}
	return true
}

// FirstUntracked returns the name of the first stage that dropped the
// uncertainty model, or "" if none did.
func (l *Ledger) FirstUntracked() string {
	for _, e := range l.entries {
		if !e.Tracked {
			return e.Stage
		}
	}
	return ""
}

// InfoRetained multiplies stage-wise information retention (1 - InfoLost).
func (l *Ledger) InfoRetained() float64 {
	r := 1.0
	for _, e := range l.entries {
		loss := e.InfoLost
		if loss < 0 {
			loss = 0
		}
		if loss > 1 {
			loss = 1
		}
		r *= 1 - loss
	}
	return r
}

// String renders the ledger as a readable chain-of-trust report.
func (l *Ledger) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "uncertainty ledger (%d stages)\n", len(l.entries))
	for i, e := range l.entries {
		mark := "✓"
		if !e.Tracked {
			mark = "✗"
		}
		fmt.Fprintf(&sb, "  %d. [%s] %-16s bias=%.4f var=%.4f lost=%.2f  %s\n",
			i+1, mark, e.Stage, e.BiasIntroduced, e.VarianceIntroduced, e.InfoLost, e.Description)
	}
	if l.Veracious() {
		sb.WriteString("  chain of trust: INTACT — predictions can carry veracity estimates\n")
	} else {
		fmt.Fprintf(&sb, "  chain of trust: BROKEN at %q — prediction veracity unsupported\n", l.FirstUntracked())
	}
	return sb.String()
}

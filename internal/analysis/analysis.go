// Package analysis registers the lotsvet analyzer suite: the
// mechanical enforcement of the invariants DESIGN.md states in prose.
//
//   - slabsafe: pooled wire slabs must not be used or escape after
//     their PutSlab, nor a delivered message's payload after its
//     Release.
//   - viewclose: pinned views are Released on every path and never
//     used after Release.
//   - boundeddecode: wire payload indexing is length-guarded, and
//     every exported decoder has a fuzz target.
//   - mustcheck: Send/Flush/Close errors on transport endpoints are
//     never discarded.
//
// stats.Counters needs no analyzer: every field is an atomic.Int64, so
// go vet's copylocks pass rejects a copy out of one.
//
// The suite runs in CI via cmd/lotsvet, built on the stdlib-only
// framework in the lint subpackage. Waivers use
// `//lint:allow <analyzer> <reason>`; the reason is mandatory and its
// absence is itself a finding.
package analysis

import (
	"repro/internal/analysis/boundeddecode"
	"repro/internal/analysis/lint"
	"repro/internal/analysis/mustcheck"
	"repro/internal/analysis/slabsafe"
	"repro/internal/analysis/viewclose"
)

// All returns the full lotsvet analyzer suite, in the order lotsvet
// runs it.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		slabsafe.Analyzer,
		viewclose.Analyzer,
		boundeddecode.Analyzer,
		mustcheck.Analyzer,
	}
}

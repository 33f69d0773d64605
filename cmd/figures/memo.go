package main

import (
	"repro/internal/cluster"
	"repro/internal/experiments"
)

// memo simulates each campaign that several figures share at most once
// per run() call. In the paper, Figs 8 and 10 are the Fig 6 executions
// regrouped by allocation, "12" and "13" render one Fig 12 campaign, and
// the seven lessons read the Fig 4, 5b, 6 and 12 data; under -fig all each
// of those campaigns would otherwise run two or three times. Every other
// input (reps, seed, protocol, workers, pipeline) is fixed by opts for the
// memo's whole life, so a campaign's key is just (figure, scenario).
// Callers that change opts (a capped rep count, a derived seed) run their
// campaigns directly instead.
//
// Entries keep only what later figures read, so the memo's live set stays
// small: Fig 6 points carry per-sample allocations instead of records, and
// the Fig 12 entry keeps its rows, without records, plus the Fig 13
// analysis derived from them. A memo is not safe for concurrent use.
type memo struct {
	opts  experiments.Options
	fig4s map[cluster.Scenario][]experiments.SweepPoint
	fig5s map[cluster.Scenario][]experiments.Fig5Series
	fig6s map[cluster.Scenario][]experiments.CountPoint
	f12   *fig12Entry
}

// fig12Entry is the memoized Fig 12 campaign. err13 is Fig 13's error
// (too few samples in one sharing group at small -reps); it is kept rather
// than returned so "-fig 12" still writes fig12.csv before failing.
type fig12Entry struct {
	rows  []experiments.Fig12Row
	res13 experiments.Fig13Result
	err13 error
}

func newMemo(opts experiments.Options) *memo {
	return &memo{
		opts:  opts,
		fig4s: map[cluster.Scenario][]experiments.SweepPoint{},
		fig5s: map[cluster.Scenario][]experiments.Fig5Series{},
		fig6s: map[cluster.Scenario][]experiments.CountPoint{},
	}
}

// once returns cache[s], running the campaign on a miss. Errors are not
// cached; they end the run anyway.
func once[T any](cache map[cluster.Scenario]T, s cluster.Scenario, opts experiments.Options,
	campaign func(cluster.Scenario, experiments.Options) (T, error)) (T, error) {
	if v, ok := cache[s]; ok {
		return v, nil
	}
	v, err := campaign(s, opts)
	if err == nil {
		cache[s] = v
	}
	return v, err
}

func (m *memo) fig4(s cluster.Scenario) ([]experiments.SweepPoint, error) {
	return once(m.fig4s, s, m.opts, experiments.Fig4)
}

// fig5 is its own campaign, not Fig 4 plus a 16-ppn series: each series
// runs at its own derived seed (see experiments.Fig5).
func (m *memo) fig5(s cluster.Scenario) ([]experiments.Fig5Series, error) {
	return once(m.fig5s, s, m.opts, experiments.Fig5)
}

func (m *memo) fig6(s cluster.Scenario) ([]experiments.CountPoint, error) {
	return once(m.fig6s, s, m.opts, experiments.Fig6)
}

func (m *memo) fig12() (*fig12Entry, error) {
	if m.f12 != nil {
		return m.f12, nil
	}
	rows, err := experiments.Fig12(m.opts)
	if err != nil {
		return nil, err
	}
	e := &fig12Entry{rows: rows}
	e.res13, e.err13 = experiments.Fig13(rows)
	for i := range e.rows {
		e.rows[i].Records = nil // Fig 13 was their only reader
	}
	m.f12 = e
	return e, nil
}

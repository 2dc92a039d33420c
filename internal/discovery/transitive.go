package discovery

import (
	"fmt"
	"math/rand"

	"github.com/arda-ml/arda/internal/dataframe"
	"github.com/arda-ml/arda/internal/join"
)

// TransitiveOptions tunes two-hop candidate discovery.
type TransitiveOptions struct {
	// Options configures the underlying single-hop discovery.
	Options
	// MaxIntermediates bounds how many first-hop tables are expanded
	// (highest-scored first; default 8).
	MaxIntermediates int
	// MaxPerIntermediate bounds second-hop joins materialized per
	// intermediate table (default 4).
	MaxPerIntermediate int
	// MinScore drops hops whose discovery score falls below it (default
	// 0.3).
	MinScore float64
}

func (o *TransitiveOptions) defaults() {
	o.Options.defaults()
	if o.MaxIntermediates <= 0 {
		o.MaxIntermediates = 8
	}
	if o.MaxPerIntermediate <= 0 {
		o.MaxPerIntermediate = 4
	}
	if o.MinScore <= 0 {
		o.MinScore = 0.3
	}
}

// Transitive implements the paper's §9 future-work item: augmentation via
// transitive joins. Signal two hops away — base → A on one key, A → B on
// another — is unreachable by single joins, so for the strongest first-hop
// candidates A it discovers tables B joinable with A, materializes A⋈B as a
// new candidate table (B's columns prefixed "via.<B>."), and returns
// candidates joining the base table onto these widened intermediates. The
// returned candidates compose with regular ones and run through the normal
// ARDA pipeline, whose feature selection decides — exactly as for direct
// joins — whether the transitively-reached features earn their keep.
func Transitive(base *dataframe.Table, repo []*dataframe.Table, target string, opts TransitiveOptions, rng *rand.Rand) []Candidate {
	opts.defaults()
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	// The repository is profiled once: the first hop builds each table's
	// profile as it matches it, and every second hop reuses them (an
	// intermediate table's profile then serves as the base side, so every
	// profile builds all its value sets).
	profiles := make([]*tableProfile, len(repo))
	firstHop := discover(profileTable(base, opts.Options, nil), target, len(repo), func(i int) *tableProfile {
		profiles[i] = profileTable(repo[i], opts.Options, nil)
		return profiles[i]
	}, opts.Options)
	expanded := 0
	var out []Candidate
	seen := map[string]bool{}
	for _, first := range firstHop {
		if expanded >= opts.MaxIntermediates {
			break
		}
		if first.Score < opts.MinScore || seen[first.Table.Name()] {
			continue
		}
		seen[first.Table.Name()] = true
		expanded++

		// Discover second hops from the intermediate table. Its own key
		// columns stay eligible — they are exactly what links onward tables.
		var inter *tableProfile
		var rest []*tableProfile
		for i, t := range repo {
			switch {
			case t == first.Table:
				inter = profiles[i]
			case t != base:
				rest = append(rest, profiles[i])
			}
		}
		second := discover(inter, "", len(rest), func(i int) *tableProfile { return rest[i] }, opts.Options)
		joined := 0
		widened := first.Table
		for _, hop := range second {
			if joined >= opts.MaxPerIntermediate {
				break
			}
			if hop.Score < opts.MinScore {
				break // score-ordered: everything after is weaker
			}
			spec := &join.Spec{
				Keys:         hop.Keys,
				Method:       join.TwoWayNearest,
				TimeResample: true,
				Prefix:       fmt.Sprintf("via.%s.", hop.Table.Name()),
			}
			res, err := join.Execute(widened, hop.Table, spec, rng)
			if err != nil {
				continue
			}
			widened = res.Table
			joined++
		}
		if joined == 0 {
			continue
		}
		widened.SetName(fmt.Sprintf("%s+%dhop", first.Table.Name(), joined))
		out = append(out, Candidate{
			Table: widened,
			Keys:  first.Keys,
			// Transitive candidates rank below their direct first hop: the
			// extra hop adds both reach and noise.
			Score: first.Score * 0.9,
			Soft:  first.Soft,
		})
	}
	return out
}

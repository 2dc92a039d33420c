package ml

import (
	"github.com/arda-ml/arda/internal/parallel"
)

// ForestJob pairs a dataset with the forest configuration to fit on it.
type ForestJob struct {
	DS  *Dataset
	Cfg ForestConfig
}

// FitForests fits every job's forest in one flattened parallel pass: all
// (forest, tree) pairs are submitted together, so small forests no longer
// serialize behind a per-forest barrier and the pool drains one long queue
// instead of many short ones. Each pair's RNG derives from its own forest's
// seed and tree index exactly as FitForest does, and tree t of job f lands
// at Trees[t] of forest f regardless of scheduling, so the result is
// bit-identical to fitting the jobs one FitForest at a time — at any worker
// count. Cfg.Parallel is ignored; the workers argument (0 = process-wide
// maximum) governs the whole wave.
//
// Jobs with a matching attached split view (AttachSplits) reuse it; the
// rest build their own split set up front.
func FitForests(workers int, jobs []ForestJob) []*Forest {
	forests := make([]*Forest, len(jobs))
	type jobState struct {
		ss  *splitSet
		tc  TreeConfig
		cfg ForestConfig
	}
	states := make([]jobState, len(jobs))
	offsets := make([]int, len(jobs)+1)
	for i, job := range jobs {
		cfg, tc := resolveForestConfig(job.DS, job.Cfg)
		states[i] = jobState{tc: tc, cfg: cfg}
		offsets[i+1] = offsets[i] + cfg.NTrees
		forests[i] = &Forest{
			Trees:   make([]*Tree, cfg.NTrees),
			task:    job.DS.Task,
			classes: job.DS.Classes,
		}
	}
	for i, job := range jobs {
		states[i].ss = splitSetFor(job.DS, states[i].tc, workers)
	}
	total := offsets[len(jobs)]
	jobOf := make([]int32, total)
	for i := range jobs {
		for t := offsets[i]; t < offsets[i+1]; t++ {
			jobOf[t] = int32(i)
		}
	}
	parallel.ForEach(workers, total, func(g int) {
		i := jobOf[g]
		t := g - offsets[i]
		st := &states[i]
		tm := startTreeTimer(st.cfg.TreeDur)
		forests[i].Trees[t] = bootstrapTree(st.ss, st.tc, st.cfg.Seed+int64(t)*7919)
		tm.finish()
	})
	for i, job := range jobs {
		aggregateImportances(forests[i], job.DS.D)
	}
	return forests
}

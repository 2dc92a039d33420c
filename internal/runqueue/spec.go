package runqueue

import (
	"fmt"
	"time"

	"github.com/arda-ml/arda/internal/core"
	"github.com/arda-ml/arda/internal/coreset"
	"github.com/arda-ml/arda/internal/featsel"
	"github.com/arda-ml/arda/internal/join"
)

// Spec is one augmentation request, the JSON body of a run submission. It
// mirrors the arda CLI's pipeline knobs; zero values mean the same defaults
// the CLI applies. Workers is deliberately absent — the worker pool is
// process-wide and owned by the daemon, and results are bit-identical at any
// worker count, so a request has no business sizing it.
type Spec struct {
	// Dir is the CSV corpus directory; empty uses the daemon's -dir.
	Dir string `json:"dir,omitempty"`
	// Tenant names the admission lane this run queues in (lowercase
	// alphanumeric, '-' or '_', 32 chars max); empty uses the daemon's
	// default lane. Tenants share the workers but are dispatched fairly:
	// deficit round-robin across lanes, with per-lane queue caps and
	// in-flight quotas.
	Tenant string `json:"tenant,omitempty"`
	// Base names the base table (CSV file name without extension). Required.
	Base string `json:"base"`
	// Target is the prediction column in the base table. Required.
	Target string `json:"target"`
	// Selector is the feature-selection method (featsel.Method); default RIFS.
	Selector string `json:"selector,omitempty"`
	// Coreset is the row-reduction strategy: uniform (the default) or
	// leverage.
	Coreset string `json:"coreset,omitempty"`
	// Size is the coreset size (0 = automatic).
	Size int `json:"size,omitempty"`
	// Tau enables the Tuple-Ratio prefilter when > 0.
	Tau float64 `json:"tau,omitempty"`
	// Seed drives every random choice; 0 means 1 (the CLI default).
	Seed int64 `json:"seed,omitempty"`
	// Soft selects the soft-key join method: 2way | nearest | hard.
	Soft string `json:"soft,omitempty"`
	// Significance is the bootstrap resample count (0 = off).
	Significance int `json:"significance,omitempty"`
	// Timeout bounds the run's wall clock as a Go duration string ("90s");
	// empty applies the daemon's default run budget.
	Timeout string `json:"timeout,omitempty"`
	// KeepTable also writes the augmented table (table.csv in the run
	// directory) for download.
	KeepTable bool `json:"keep_table,omitempty"`
	// Plan and Budget are removed: they chose the join plan and its
	// per-batch feature budget, which the screen stage replaced. They stay
	// only to be refused — a submission naming either is rejected, and a run
	// an earlier version persisted with either fails instead of running under
	// a plan it did not ask for.
	Plan   string `json:"plan,omitempty"`
	Budget int    `json:"budget,omitempty"`
	// Transitive and KNNImpute are removed the same way: they asked for
	// two-hop candidate discovery and k-nearest-neighbour imputation, which
	// no longer exist. A run persisted with either fails instead of running
	// with single-hop candidates and median imputation.
	Transitive bool `json:"transitive,omitempty"`
	KNNImpute  int  `json:"knn_impute,omitempty"`
}

// Validate checks the spec is executable before admission, so malformed
// requests are rejected at submit time (HTTP 400) instead of failing later
// inside the queue.
func (s *Spec) Validate() error {
	if s.Base == "" {
		return fmt.Errorf("runqueue: spec.base is required")
	}
	if s.Target == "" {
		return fmt.Errorf("runqueue: spec.target is required")
	}
	if s.Tenant != "" && !validTenant(s.Tenant) {
		return fmt.Errorf("runqueue: bad spec.tenant %q (want 1-32 chars of [a-z0-9_-], starting alphanumeric)", s.Tenant)
	}
	if _, err := s.coresetStrategy(); err != nil {
		return err
	}
	if _, err := s.softMethod(); err != nil {
		return err
	}
	if s.Selector != "" {
		if _, err := featsel.New(featsel.Method(s.Selector)); err != nil {
			return fmt.Errorf("runqueue: %w", err)
		}
	}
	if _, err := s.timeout(); err != nil {
		return err
	}
	return s.removed()
}

// removed refuses a spec that sets a removed field.
func (s *Spec) removed() error {
	switch {
	case s.Plan != "":
		return fmt.Errorf("runqueue: the spec sets plan, removed from this version; resubmit without")
	case s.Budget != 0:
		return fmt.Errorf("runqueue: the spec sets budget, removed from this version; resubmit without")
	case s.Transitive:
		return fmt.Errorf("runqueue: the spec sets transitive, removed from this version; resubmit without")
	case s.KNNImpute != 0:
		return fmt.Errorf("runqueue: the spec sets knn_impute, removed from this version; resubmit without")
	}
	return nil
}

func (s *Spec) coresetStrategy() (coreset.Strategy, error) {
	if s.Coreset == "" {
		return coreset.Uniform, nil
	}
	strat, err := coreset.ParseStrategy(s.Coreset)
	if err != nil {
		return 0, fmt.Errorf("runqueue: %w", err)
	}
	return strat, nil
}

func (s *Spec) softMethod() (join.SoftMethod, error) {
	switch s.Soft {
	case "", "2way":
		return join.TwoWayNearest, nil
	case "nearest":
		return join.NearestNeighbor, nil
	case "hard":
		return join.HardExact, nil
	}
	return 0, fmt.Errorf("runqueue: unknown soft-join method %q", s.Soft)
}

func (s *Spec) timeout() (time.Duration, error) {
	if s.Timeout == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s.Timeout)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("runqueue: bad timeout %q", s.Timeout)
	}
	return d, nil
}

// seed returns the effective run seed (the CLI defaults to 1, not 0).
func (s *Spec) seed() int64 {
	if s.Seed == 0 {
		return 1
	}
	return s.Seed
}

// options builds the pipeline options for one execution of the spec.
// The default timeout comes from the manager config; checkpointing,
// tracing, workers, and injectors are wired by the supervisor.
func (s *Spec) options(defaults Config) (core.Options, error) {
	if err := s.removed(); err != nil {
		return core.Options{}, err
	}
	strat, err := s.coresetStrategy()
	if err != nil {
		return core.Options{}, err
	}
	soft, err := s.softMethod()
	if err != nil {
		return core.Options{}, err
	}
	timeout, err := s.timeout()
	if err != nil {
		return core.Options{}, err
	}
	if timeout == 0 {
		timeout = defaults.RunTimeout
	}
	opts := core.Options{
		Target:          s.Target,
		CoresetStrategy: strat,
		CoresetSize:     s.Size,
		TupleRatioTau:   s.Tau,
		SoftMethod:      soft,
		Seed:            s.seed(),
		Significance:    s.Significance,
		Timeout:         timeout,
	}
	if s.Selector != "" {
		sel, err := featsel.New(featsel.Method(s.Selector))
		if err != nil {
			return core.Options{}, err
		}
		opts.Selector = sel
	}
	return opts, nil
}

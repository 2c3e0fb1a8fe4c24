// Package tdm implements the TDM ratio assignment stage of Sec. IV of the
// paper: the Lagrangian-relaxation formulation whose subproblem is solved in
// closed form per edge by the Cauchy–Schwarz inequality (Eq. 13), the
// Sigmoid + simple-moving-average multiplier update strategy (Eqs. 15–16),
// and the legalization and refinement pass of Sec. IV-E (Algorithm 2).
package tdm

// Options tunes Algorithm 1 and the refinement. The zero value selects the
// paper's published parameters. The parameters the paper fixes are
// constants, not options: the SMA window w = 10 (DefaultWindow), the Sigmoid
// magnitude α = 3 (DefaultAlpha) and steepness β = 10 (DefaultBeta) of
// Eqs. (15)–(16), the π_n floor (DefaultPiFloor), the refinement tolerance
// (DefaultTol), the single refinement sweep of Algorithm 2, and the unit
// Polyak step of the subgradient baseline.
type Options struct {
	// Epsilon is the LR convergence criterion: iteration stops when
	// (z - LB)/LB <= Epsilon. The paper uses 0.0027 for the small
	// benchmarks and 0.0005 for the large ones. Zero selects
	// DefaultEpsilon.
	Epsilon float64
	// MaxIter caps LR iterations (the paper's "lim"). Zero selects
	// DefaultMaxIter; negative means "no LR iterations" (useful to
	// benchmark legalization alone).
	MaxIter int
	// Update selects the multiplier update rule. The default is the
	// paper's Sigmoid+SMA strategy; UpdateSubgradient is the classic
	// projected-subgradient baseline kept for the ablation study.
	Update UpdateRule
	// Legal selects the legalization rule: LegalEven (the contest's and
	// the paper's "positive even integer" domain, the default) or
	// LegalPow2 (the power-of-two restriction of the paper's refs [2][3],
	// which keeps TDM slot frames short at some objective cost).
	Legal Legalizer
	// Workers is the most goroutines the LR inner loops run on (following
	// the multi-threaded LR of the paper's ref [14]); <= 1 runs them on the
	// caller. A sweep forks only when its estimated work pays for it (see
	// package par). Each sweep's chunk partition, and so the order its
	// partial sums associate in, depends on the loop length only, so the
	// results are identical for every Workers value.
	Workers int
	// Trace, when non-nil, receives (iteration, z, LB) after every LR
	// iteration — the series plotted in Fig. 3(b).
	Trace func(iter int, z, lb float64)
	// WarmLambda, when non-nil, initializes the multipliers from a
	// previous run instead of uniformly (line 2 of Algorithm 1). It must
	// have one entry per NetGroup; entries are clamped positive and
	// re-projected onto the simplex. Useful when re-assigning after a
	// small topology change (the iterated co-optimization extension).
	WarmLambda []float64
	// CaptureLambda, when non-nil, receives a copy of the final
	// multipliers when LR stops — feed it back via WarmLambda on the
	// next round.
	CaptureLambda func([]float64)
}

// Legalizer selects the integral domain ratios are rounded into.
type Legalizer int

const (
	// LegalEven rounds up to even integers >= 2 (Sec. II-A domain).
	LegalEven Legalizer = iota
	// LegalPow2 rounds up to powers of two >= 2 (refs [2][3] domain).
	LegalPow2
)

// UpdateRule selects how the Lagrangian multipliers are updated between
// iterations.
type UpdateRule int

const (
	// UpdateSigmoidSMA is the paper's strategy (Eqs. 15-16):
	// λ_g ← λ_g · (GTR_g/z)^K with K driven by a Sigmoid over the
	// SMA-windowed z-score of the normalized group TDM.
	UpdateSigmoidSMA UpdateRule = iota
	// UpdateSubgradient is the classic projected subgradient:
	// λ_g ← max(λ_g + step·(GTR_g - z)/z, 0), then simplex projection.
	UpdateSubgradient
)

// Paper defaults and fixed parameters.
const (
	DefaultEpsilon = 0.0027
	DefaultMaxIter = 500
	// DefaultWindow is the SMA window width w (paper: 10).
	DefaultWindow = 10
	// DefaultAlpha is the Sigmoid magnitude α (paper: 3).
	DefaultAlpha = 3
	// DefaultBeta is the Sigmoid steepness β (paper: 10).
	DefaultBeta = 10
	// DefaultPiFloor is the lower clamp applied to π_n when generating
	// edge patterns, keeping Eq. (13) well-defined for nets whose every
	// group has a vanishing multiplier (including nets in no group at all).
	DefaultPiFloor = 1e-12
	// DefaultTol is the preset tolerance subtracted from the refinement
	// margin ξ_e to absorb floating-point imprecision (Sec. IV-E step 2).
	DefaultTol = 1e-9
)

func (o Options) withDefaults() Options {
	if o.Epsilon == 0 {
		o.Epsilon = DefaultEpsilon
	}
	return o
}

// maxIter resolves the MaxIter sentinel without mutating the option: the
// zero/negative collapse cannot live in withDefaults because withDefaults is
// applied both by the entry points and by Finish, and a mutating collapse
// would turn "negative: disabled" into the default on the second pass.
func (o Options) maxIter() int {
	switch {
	case o.MaxIter == 0:
		return DefaultMaxIter
	case o.MaxIter < 0:
		return 0
	}
	return o.MaxIter
}

// Report summarizes one assignment run with the Table II columns.
type Report struct {
	// Iterations is the number of LR iterations executed ("Iter").
	Iterations int
	// Converged reports whether the ε criterion was met before MaxIter.
	Converged bool
	// LowerBound is the best Lagrangian dual value seen ("LB"): no TDM
	// assignment on this topology, even with relaxed integrality, can
	// achieve a smaller maximum group TDM ratio.
	LowerBound float64
	// RelaxedZ is the best fractional maximum group TDM ratio achieved
	// by LR before legalization.
	RelaxedZ float64
	// GTRNoRef is the maximum group TDM ratio after legalization but
	// before refinement ("GTR_noref").
	GTRNoRef int64
	// GTRMax is the final maximum group TDM ratio ("GTR_max").
	GTRMax int64
	// Interrupted is non-nil when the run stopped early — context
	// cancellation (context.Canceled / context.DeadlineExceeded) or a
	// contained worker panic (*par.PanicError). The reported assignment is
	// still legal; it is the best incumbent at the stop boundary rather
	// than a fully converged result.
	Interrupted error
}

package lp

// Status is the outcome of a MILP solve (internal/solver reports it).
type Status int

const (
	// StatusOptimal means an optimal (integer-feasible) solution was proved.
	StatusOptimal Status = iota
	// StatusInfeasible means no feasible solution exists.
	StatusInfeasible
	// StatusFeasible means a feasible solution was found but a search limit
	// was hit before proving optimality.
	StatusFeasible
	// StatusLimit means a search limit was hit with no feasible solution.
	StatusLimit
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusFeasible:
		return "feasible(limit)"
	default:
		return "limit"
	}
}

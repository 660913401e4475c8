package nn

import "math"

// Optimizer updates parameters from accumulated gradients.
type Optimizer interface {
	// Step applies one update with the given learning rate, then the
	// caller typically zeroes gradients.
	Step(params []ParamGrad, lr float64)
}

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	Momentum float64
	velocity [][]float64
}

// NewSGD creates an SGD optimizer; momentum 0 gives vanilla SGD.
func NewSGD(momentum float64) *SGD { return &SGD{Momentum: momentum} }

// Step implements Optimizer.
func (s *SGD) Step(params []ParamGrad, lr float64) {
	if s.Momentum == 0 {
		for _, pg := range params {
			for i := range pg.Param {
				pg.Param[i] -= float64(lr * pg.Grad[i])
			}
		}
		return
	}
	if s.velocity == nil {
		s.velocity = make([][]float64, len(params))
		for i, pg := range params {
			s.velocity[i] = make([]float64, len(pg.Param))
		}
	}
	for i, pg := range params {
		v := s.velocity[i]
		for j := range pg.Param {
			v[j] = float64(s.Momentum*v[j]) - float64(lr*pg.Grad[j])
			pg.Param[j] += v[j]
		}
	}
}

// Adam is the Adam optimizer (Kingma & Ba, 2015), the default DeePMD-kit
// trainer.
type Adam struct {
	Beta1, Beta2, Eps float64
	t                 int
	m, v              [][]float64
}

// NewAdam creates an Adam optimizer with the standard hyperparameters.
func NewAdam() *Adam { return &Adam{Beta1: 0.9, Beta2: 0.999, Eps: 1e-8} }

// Step implements Optimizer.
func (a *Adam) Step(params []ParamGrad, lr float64) {
	if a.m == nil {
		a.m = make([][]float64, len(params))
		a.v = make([][]float64, len(params))
		for i, pg := range params {
			a.m[i] = make([]float64, len(pg.Param))
			a.v[i] = make([]float64, len(pg.Param))
		}
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, pg := range params {
		m, v := a.m[i], a.v[i]
		for j := range pg.Param {
			g := pg.Grad[j]
			m[j] = float64(a.Beta1*m[j]) + float64((1-a.Beta1)*g)
			v[j] = float64(a.Beta2*v[j]) + float64((1-a.Beta2)*g*g)
			mh := m[j] / c1
			vh := v[j] / c2
			pg.Param[j] -= lr * mh / (math.Sqrt(vh) + a.Eps)
		}
	}
}

// ExpDecaySchedule is DeePMD's exponentially decaying learning rate: the
// rate starts at Start and reaches Stop after TotalSteps, decaying as
// lr(t) = Start · (Stop/Start)^(t/TotalSteps).  The loss prefactors in the
// DeePMD loss are functions of lr(t)/Start (see deepmd.Loss).
type ExpDecaySchedule struct {
	Start, Stop float64
	TotalSteps  int
}

// At returns the learning rate at step t (clamped to [0, TotalSteps]).
func (s ExpDecaySchedule) At(t int) float64 {
	if s.TotalSteps <= 0 {
		return s.Start
	}
	if t < 0 {
		t = 0
	}
	if t > s.TotalSteps {
		t = s.TotalSteps
	}
	frac := float64(t) / float64(s.TotalSteps)
	return s.Start * math.Pow(s.Stop/s.Start, frac)
}

// WorkerScale scales a base learning rate for distributed data-parallel
// training with n workers using the named scheme: "linear" multiplies by
// n (the DeePMD default), "sqrt" by √n, and "none" leaves it unchanged
// (§2.2.1).  Unknown schemes fall back to "none".
func WorkerScale(scheme string, lr float64, n int) float64 {
	if n <= 1 {
		return lr
	}
	switch scheme {
	case "linear":
		return lr * float64(n)
	case "sqrt":
		return lr * math.Sqrt(float64(n))
	default:
		return lr
	}
}

// ScaleSchemes lists the worker-scaling options in the paper's decoding
// order: floor(gene) % 3 indexes into this slice (§2.2.2).
var ScaleSchemes = []string{"linear", "sqrt", "none"}

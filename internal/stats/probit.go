package stats

import (
	"errors"
	"math"
)

// ProbitModel is a fitted Probit regression: Pr[y=1 | x] = Phi(b0 + b1*x1 + ...).
// Tero uses Probit models to assess the effect of latency spikes on the
// probability of a server or game change (§6, Table 5).
type ProbitModel struct {
	// Coef holds the fitted coefficients; Coef[0] is the intercept and
	// Coef[i] the coefficient of feature i-1.
	Coef []float64
	// StdErr holds the asymptotic standard errors of the coefficients
	// (square roots of the inverse negative Hessian diagonal).
	StdErr []float64
	// LogLik is the maximized log-likelihood.
	LogLik float64
	// Iter is the number of Newton-Raphson iterations performed.
	Iter int
	// N is the number of observations.
	N int
	// converged records whether Newton-Raphson reached tolerance.
	converged bool
}

// ErrProbitSingular is returned when the Hessian is singular (e.g. perfectly
// separable data or a constant feature).
var ErrProbitSingular = errors.New("stats: probit Hessian is singular")

// ErrProbitDiverged is returned when Newton-Raphson fails to converge.
var ErrProbitDiverged = errors.New("stats: probit fit did not converge")

// FitProbit fits a Probit model by Newton-Raphson maximum likelihood.
// X is row-major with one row per observation (without intercept column —
// it is added internally); y holds 0/1 outcomes.
func FitProbit(X [][]float64, y []int) (*ProbitModel, error) {
	n := len(X)
	if n == 0 || n != len(y) {
		return nil, ErrEmpty
	}
	k := len(X[0]) + 1 // + intercept
	beta := make([]float64, k)

	// Initialize the intercept at Phi^-1(ybar) for faster convergence.
	pos := 0
	for _, v := range y {
		if v == 1 {
			pos++
		}
	}
	ybar := float64(pos) / float64(n)
	if ybar <= 0 || ybar >= 1 {
		return nil, errors.New("stats: probit outcome has no variation")
	}
	beta[0] = NormalQuantile(ybar)

	const (
		maxIter = 100
		tol     = 1e-10
	)
	grad := make([]float64, k)
	hess := make([][]float64, k)
	for i := range hess {
		hess[i] = make([]float64, k)
	}
	row := make([]float64, k)

	var ll float64
	iter := 0
	for ; iter < maxIter; iter++ {
		for i := range grad {
			grad[i] = 0
			for j := range hess[i] {
				hess[i][j] = 0
			}
		}
		ll = 0
		for obs := 0; obs < n; obs++ {
			row[0] = 1
			copy(row[1:], X[obs])
			xb := 0.0
			for j := 0; j < k; j++ {
				xb += beta[j] * row[j]
			}
			phi := NormalPDF(xb)
			Phi := NormalCDF(xb)
			// Clamp to avoid log(0) in quasi-separated data.
			const eps = 1e-12
			if Phi < eps {
				Phi = eps
			}
			if Phi > 1-eps {
				Phi = 1 - eps
			}
			var lambda float64 // score factor
			if y[obs] == 1 {
				ll += math.Log(Phi)
				lambda = phi / Phi
			} else {
				ll += math.Log(1 - Phi)
				lambda = -phi / (1 - Phi)
			}
			// Gradient: sum lambda * x.
			// Hessian (of log-lik): -sum w * x x', with
			// w = lambda * (lambda + xb)  (standard probit result).
			w := lambda * (lambda + xb)
			for j := 0; j < k; j++ {
				grad[j] += lambda * row[j]
				for l := 0; l <= j; l++ {
					hess[j][l] += w * row[j] * row[l]
				}
			}
		}
		// Mirror the lower triangle.
		for j := 0; j < k; j++ {
			for l := j + 1; l < k; l++ {
				hess[j][l] = hess[l][j]
			}
		}
		// Solve hess * delta = grad  (hess is the negative Hessian, positive
		// definite near the optimum).
		delta, err := solveSymmetric(hess, grad)
		if err != nil {
			return nil, err
		}
		maxStep := 0.0
		for j := 0; j < k; j++ {
			beta[j] += delta[j]
			if a := math.Abs(delta[j]); a > maxStep {
				maxStep = a
			}
		}
		if maxStep < tol {
			iter++
			break
		}
	}

	m := &ProbitModel{Coef: beta, LogLik: ll, Iter: iter, N: n, converged: iter < maxIter}
	if !m.converged {
		return m, ErrProbitDiverged
	}

	// Standard errors from the inverse of the final negative Hessian.
	inv, err := invertSymmetric(hessianAt(X, y, beta))
	if err == nil {
		m.StdErr = make([]float64, k)
		for j := 0; j < k; j++ {
			if inv[j][j] > 0 {
				m.StdErr[j] = math.Sqrt(inv[j][j])
			}
		}
	}
	return m, nil
}

// hessianAt recomputes the negative Hessian at beta.
func hessianAt(X [][]float64, y []int, beta []float64) [][]float64 {
	k := len(beta)
	hess := make([][]float64, k)
	for i := range hess {
		hess[i] = make([]float64, k)
	}
	row := make([]float64, k)
	for obs := range X {
		row[0] = 1
		copy(row[1:], X[obs])
		xb := 0.0
		for j := 0; j < k; j++ {
			xb += beta[j] * row[j]
		}
		phi := NormalPDF(xb)
		Phi := NormalCDF(xb)
		const eps = 1e-12
		if Phi < eps {
			Phi = eps
		}
		if Phi > 1-eps {
			Phi = 1 - eps
		}
		var lambda float64
		if y[obs] == 1 {
			lambda = phi / Phi
		} else {
			lambda = -phi / (1 - Phi)
		}
		w := lambda * (lambda + xb)
		for j := 0; j < k; j++ {
			for l := 0; l < k; l++ {
				hess[j][l] += w * row[j] * row[l]
			}
		}
	}
	return hess
}

// AverageMarginalEffect returns the average marginal effect of feature
// `feat` (0-based, excluding intercept): the mean over observations of
// d Pr[y=1]/d x_feat = phi(x'b) * b_feat. This is the number reported per
// cell of Table 5.
func (m *ProbitModel) AverageMarginalEffect(X [][]float64, feat int) float64 {
	if len(X) == 0 {
		return 0
	}
	b := m.Coef[feat+1]
	s := 0.0
	for _, row := range X {
		xb := m.Coef[0]
		for i, v := range row {
			xb += m.Coef[i+1] * v
		}
		s += NormalPDF(xb) * b
	}
	return s / float64(len(X))
}

// ZValue returns the z statistic of coefficient i (0 = intercept).
func (m *ProbitModel) ZValue(i int) float64 {
	if m.StdErr == nil || m.StdErr[i] == 0 {
		return math.NaN()
	}
	return m.Coef[i] / m.StdErr[i]
}

// PValue returns the two-sided p-value of coefficient i.
func (m *ProbitModel) PValue(i int) float64 {
	z := m.ZValue(i)
	if math.IsNaN(z) {
		return math.NaN()
	}
	return TwoSidedZPValue(z)
}

// solveSymmetric solves A x = b for symmetric positive-definite A via
// Cholesky decomposition.
func solveSymmetric(A [][]float64, b []float64) ([]float64, error) {
	L, err := cholesky(A)
	if err != nil {
		return nil, err
	}
	n := len(b)
	// Forward substitution L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= L[i][j] * y[j]
		}
		y[i] = s / L[i][i]
	}
	// Back substitution L' x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= L[j][i] * x[j]
		}
		x[i] = s / L[i][i]
	}
	return x, nil
}

// invertSymmetric inverts a symmetric positive-definite matrix via Cholesky.
func invertSymmetric(A [][]float64) ([][]float64, error) {
	n := len(A)
	inv := make([][]float64, n)
	e := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := range e {
			e[j] = 0
		}
		e[i] = 1
		col, err := solveSymmetric(A, e)
		if err != nil {
			return nil, err
		}
		inv[i] = col
	}
	return inv, nil
}

// cholesky returns the lower-triangular L with A = L L'.
func cholesky(A [][]float64) ([][]float64, error) {
	n := len(A)
	L := make([][]float64, n)
	for i := range L {
		L[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := A[i][j]
			for kk := 0; kk < j; kk++ {
				s -= L[i][kk] * L[j][kk]
			}
			if i == j {
				if s <= 0 {
					return nil, ErrProbitSingular
				}
				L[i][i] = math.Sqrt(s)
			} else {
				L[i][j] = s / L[j][j]
			}
		}
	}
	return L, nil
}

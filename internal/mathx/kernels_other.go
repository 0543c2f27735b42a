//go:build !amd64

package mathx

func gemvRows(m *Matrix, rows []int, v, dst []float64) { gemvRowsGo(m, rows, v, dst) }

func dotNormRows(m *Matrix, rows []int, v, dots, sqnorms []float64) {
	dotNormRowsGo(m, rows, v, dots, sqnorms)
}

func sigmoidInto(x, dst []float64) { sigmoidIntoGo(x, dst) }

func decayStep3Rows(lr, l2, c, a []float64, b, x [][]float64) {
	decayStep3RowsGo(lr, l2, c, a, b, x)
}

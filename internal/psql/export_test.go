package psql

// SetMaxProductRows lowers (or raises) the cap on unindexed products
// for the external tests and returns the function that puts the old cap
// back.
func SetMaxProductRows(n int) (restore func()) {
	old := maxProductRows
	maxProductRows = n
	return func() { maxProductRows = old }
}

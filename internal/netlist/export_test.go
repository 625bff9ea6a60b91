package netlist

// Hooks for the external-package ownership test, which needs gen and lac.
var (
	DeepCopy     = deepCopy
	DiffCircuit  = diffCircuit
	CheckQueries = checkQueries
	KeptOrder    = keptOrder
	RunOwnership = runOwnership
)

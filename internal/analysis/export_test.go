package analysis

// RunAll applies the whole suite to a package under mod, including
// the stale-suppression check.
func RunAll(mod *Module, pkg *Package) ([]Diagnostic, error) {
	return RunSuite(All(), mod, pkg, true)
}

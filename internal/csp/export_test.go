package csp

import "gem/internal/explore/exploretest"

// Commutes runs exploretest.Commutes on p's machine, for the external
// tests that build programs with the problem packages.
func Commutes(p *Program, walks int) error {
	m, err := newMachine(p)
	if err != nil {
		return err
	}
	return exploretest.Commutes[*machine, transition](m, walks)
}

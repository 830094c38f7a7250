package irc

// briggsOKRef is the reference Briggs test over the live worklist
// state: the union of u's and v's in-play neighbors collected into a
// map, shared neighbors' degrees lowered by one, then every
// significant neighbor counted. The fast briggsOK must agree with it
// on every query.
func (s *state) briggsOKRef(u, v int32) bool {
	k := int32(s.k(u))
	deg := make(map[int32]int32)
	s.adjacent(u, func(t int32) { deg[t] = s.degree[t] })
	s.adjacent(v, func(t int32) {
		if d, common := deg[t]; common {
			deg[t] = d - 1
		} else {
			deg[t] = s.degree[t]
		}
	})
	delete(deg, u)
	delete(deg, v)
	significant := int32(0)
	for _, d := range deg {
		if d >= k {
			significant++
		}
	}
	return significant < k
}

// CheckBriggsQueries hands check the fast answer and the reference
// answer of every Briggs query run until restore is called, each
// computed on the worklist state at the moment of the query. Queries
// must come from one goroutine at a time.
func CheckBriggsQueries(check func(got, want bool)) (restore func()) {
	briggsObserver = func(s *state, u, v int32, ok bool) {
		check(ok, s.briggsOKRef(u, v))
	}
	return func() { briggsObserver = nil }
}

package fleet

// Test-only windows into router internals for the external fleet_test
// package, whose tests stand up real mapd replicas.

// UsableCountForTest reports how many replicas are ready with an
// admitting breaker.
func (rt *Router) UsableCountForTest() int { return rt.usableCount() }

// ReplicasForTest exposes the replica set for white-box assertions.
func (rt *Router) ReplicasForTest() []*Replica { return rt.replicas }

// RequeuesForTest counts jobs resubmitted to another replica after
// their placement died mid-flight.
func (rt *Router) RequeuesForTest() int64 { return rt.requeues.Load() }

// HomeOfForTest returns the base URL of the replica that rendezvous
// hashing ranks first for key: the replica a job with that routing key
// is placed on while the whole fleet is healthy. Chaos tests use it to
// pick a victim that is guaranteed to hold work.
func (rt *Router) HomeOfForTest(key string) string {
	ranked := rankReplicas(rt.replicas, key)
	if len(ranked) == 0 {
		return ""
	}
	return ranked[0].Name
}

// SubmitsForTest reports how many submissions this replica accepted.
func (r *Replica) SubmitsForTest() int64 { return r.submits.Load() }

// ReadyForTest reports the prober's current readiness verdict.
func (r *Replica) ReadyForTest() bool { return r.ready.Load() }

// BreakerForTest snapshots the replica's circuit breaker.
func (r *Replica) BreakerForTest() (state string, fails int, trips int64) {
	return r.breaker.snapshot()
}

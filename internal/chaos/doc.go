// Package chaos holds the fault-injection test suite: federations driven
// under seeded probabilistic faults (provider errors, dropped messages,
// crashed workers, partitioned nodes) while what every deployment runs —
// the Exerter's rebinding to equivalent providers, the Spacer's redispatch
// of lost envelopes, lease expiry and crash recovery — keeps exertions
// either completing or failing cleanly.
//
// The suite is build-tagged so ordinary test runs skip it:
//
//	go test -tags chaos ./internal/chaos -count=1
//
// or `make chaos`. Runs are deterministic for a fixed seed; set CHAOS_SEED
// to replay a particular sequence (default 1).
package chaos

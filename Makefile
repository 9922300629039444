# Convenience targets for the s3wlan reproduction.

GO ?= go

.PHONY: all build vet test race chaos federation-chaos overload-soak flight-smoke bench experiments analyses ablations clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Churn + fault-injection soak of the live controller (smoke check).
CHAOS_DUR ?= 5s
chaos:
	$(GO) run ./cmd/s3proto -chaos -chaos-dur $(CHAOS_DUR) -policy llf

# Cluster partition/kill/rejoin chaos: the 3-node kill -9 + oracle-replay
# suite under the race detector, then the failover/replication-lag bench.
FED_BENCH ?= BENCH_fed.json
federation-chaos:
	$(GO) test -race -count=1 -v -run 'TestFederationChaos|TestFederationTornTail|TestRelayPartitioned|TestClusterSettles' ./internal/federation
	FED_BENCH_JSON=$(abspath $(FED_BENCH)) $(GO) test -count=1 -run TestFedBenchJSON -v ./internal/federation

# Flash-crowd overload soak under -race: admission shedding, panic
# containment, breaker trip/probe, shed-conservation oracle, and the
# scripted-fault soak with its SLOs; then emit the soak's measured
# numbers to $(OVERLOAD_BENCH).
OVERLOAD_BENCH ?= BENCH_overload.json
overload-soak:
	$(GO) test -race -count=1 -v -run 'TestAdmission|TestShed|TestHelloTimeout|TestPanicContainment|TestOverloadSoak|TestBreaker|TestReportQueue' ./internal/protocol ./internal/federation
	$(GO) test -race -count=1 -v ./internal/faults
	OVERLOAD_BENCH_JSON=$(abspath $(OVERLOAD_BENCH)) $(GO) test -count=1 -run TestOverloadBenchJSON -v ./internal/protocol

# Record a chaos soak into a flight ring, then decode and health-check it.
FLIGHT_DIR ?= /tmp/s3flight
flight-smoke:
	rm -rf $(FLIGHT_DIR)
	$(GO) run ./cmd/s3proto -chaos -chaos-dur $(CHAOS_DUR) -flight-dir $(FLIGHT_DIR) -flight-every 100ms
	$(GO) run ./cmd/s3diag -dir $(FLIGHT_DIR) -check
	$(GO) run ./cmd/s3diag -dir $(FLIGHT_DIR) -format summary -match protocol.

# One benchmark per paper table/figure plus module micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the paper's evaluation figures on the default campus.
experiments:
	$(GO) run ./cmd/s3sim -generate -all

# Regenerate the measurement study (Figs 2-8, Table I).
analyses:
	$(GO) run ./cmd/s3analyze -generate -all

ablations:
	$(GO) run ./cmd/s3sim -generate -ablation all

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt

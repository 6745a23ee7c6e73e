package main

import (
	"fmt"
	"reflect"
	"time"

	"rebeca/internal/movement"
	"rebeca/internal/sim"
)

// sim-logical's fixed shape: a 4×4 grid of brokers, 30 roaming
// subscribers, the replicator pre-subscribing, plus the static stock
// stream whose integrity the oracle checks.
const (
	simGridSide = 4
	simBrokers  = simGridSide * simGridSide
	simMobiles  = 30
	// simRepeats runs of the identical scenario: their outcomes must be
	// equal field for field (the determinism check) and their wall times
	// are the timing sample.
	simRepeats = 2
	// simSecondsPerSecond converts -seconds into simulated time per repeat
	// so that the workload's wall time tracks the live runs' length:
	// 0.75 → two repeats of 7.5 simulated seconds at -seconds 10.
	simSecondsPerSecond = 0.75
	// simSetupReps: a simulated set-up takes 15 ms, so its median needs
	// (and can afford) more repetitions than the live ones.
	simSetupReps = 25
)

func simScenario(seed int64, simulated time.Duration) sim.Scenario {
	return sim.Scenario{
		Graph:        movement.Grid(simGridSide, simGridSide),
		Replication:  sim.ReplicationPreSubscribe,
		StaticStream: true,
		NumMobiles:   simMobiles,
		Duration:     simulated,
		Seed:         seed,
	}
}

// simResult is what the sim-logical run measured.
type simResult struct {
	setupS  []float64
	wallS   []float64 // per repeat
	before  procStat
	after   procStat
	outcome sim.Outcome
}

// delivered counts the notifications the scenario's oracle saw reach
// clients: the static stream plus both location-stream windows.
func delivered(o sim.Outcome) int { return o.StaticGot + o.LiveGot + o.PreArrivalGot }

func expectedDeliveries(o sim.Outcome) int {
	return o.StaticExpected + o.LiveExpected + o.PreArrivalExpected
}

func carried(o sim.Outcome) int { return o.ControlMsgs + o.DataMsgs + o.DirectMsgs }

// runSim times the scenario. Set-up is the same scenario with (almost) no
// simulated time: cluster construction, every client's connect and
// subscribe, and the drain of that control traffic.
func runSim(seed int64, seconds float64) (*simResult, error) {
	res := &simResult{}
	for r := 0; r < simSetupReps; r++ {
		t0 := time.Now()
		if _, err := simScenario(seed, time.Millisecond).Run(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
	}
	simulated := time.Duration(seconds * simSecondsPerSecond * float64(time.Second))
	res.before = readProc()
	for r := 0; r < simRepeats; r++ {
		t0 := time.Now()
		out, err := simScenario(seed, simulated).Run()
		if err != nil {
			return nil, err
		}
		res.wallS = append(res.wallS, time.Since(t0).Seconds())
		if r > 0 && !reflect.DeepEqual(out, res.outcome) {
			return nil, fmt.Errorf("sim-logical is not repeatable: seed %d gave\n%+v\nthen\n%+v", seed, res.outcome, out)
		}
		res.outcome = out
	}
	res.after = readProc()
	return res, nil
}

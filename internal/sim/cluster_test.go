package sim

import (
	"strings"
	"testing"

	"rebeca/internal/movement"
	"rebeca/internal/routing"
)

// TestClusterRefusesCoveringBesideSessionLayers: covering routing is not
// relocation-aware, so a cluster with a mobility or replication layer
// refuses it; with static clients it is E3's ablation and builds.
func TestClusterRefusesCoveringBesideSessionLayers(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     ClusterConfig
		refused bool
	}{
		{"static", ClusterConfig{}, false},
		{"mobility", ClusterConfig{Mobility: MobilityTransparent}, true},
		{"naive-mobility", ClusterConfig{Mobility: MobilityNaive}, true},
		{"replication", ClusterConfig{Replication: ReplicationPreSubscribe}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Movement, cfg.Strategy = movement.Line(3), routing.StrategyCovering
			_, err := NewCluster(cfg)
			if tc.refused && (err == nil || !strings.Contains(err.Error(), "covering")) {
				t.Errorf("NewCluster = %v, want a covering refusal", err)
			}
			if !tc.refused && err != nil {
				t.Errorf("NewCluster = %v, want a cluster", err)
			}
		})
	}
}

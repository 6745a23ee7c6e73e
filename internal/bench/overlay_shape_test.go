package bench

import "testing"

func TestE10Shape(t *testing.T) {
	tb := table("E10")
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		brokers := parseInt(t, row[0])
		subs := parseInt(t, row[1])
		detect := parseInt(t, row[2])
		reconv := parseInt(t, row[3])
		syncMsgs := parseInt(t, row[4])
		replayed := parseInt(t, row[5])
		backlog := parseInt(t, row[6])
		delivered := parseInt(t, row[7])
		if detect <= 0 || detect > 200 {
			t.Errorf("%d brokers: detect %dms outside (0, heartbeat-timeout+tick]", brokers, detect)
		}
		if reconv <= 0 || reconv > 500 {
			t.Errorf("%d brokers: reconverge %dms implausible", brokers, reconv)
		}
		if syncMsgs < 2 {
			t.Errorf("%d brokers: %d sync messages, want >= 2 (one per direction)", brokers, syncMsgs)
		}
		if replayed != subs {
			t.Errorf("%d brokers: healed side re-learned %d subs, want %d", brokers, replayed, subs)
		}
		// Gap-free: the backlog published into the cut all arrived, plus
		// nothing before it was lost.
		if delivered != backlog {
			t.Errorf("%d brokers: delivered %d, want the full %d backlog", brokers, delivered, backlog)
		}
	}
}

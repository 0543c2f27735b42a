package gossip

import (
	"testing"

	"github.com/collablearn/ciarec/internal/transport"
)

func TestGossipTrafficAccounting(t *testing.T) {
	d := gossipTestDataset(t)
	cfg := gossipConfig(d)
	cfg.Rounds = 3
	tr := transport.NewInproc()
	cfg.Transport = tr
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	st := tr.Stats()
	if st.Messages != int64(d.NumUsers*3) {
		t.Fatalf("messages = %d, want %d", st.Messages, d.NumUsers*3)
	}
	if st.Bytes <= 0 {
		t.Fatal("no bytes accounted")
	}
	perMsg := st.Bytes / st.Messages
	if perMsg != int64(s.Node(0).Params().WireBytes()) {
		t.Fatalf("per-message bytes %d != model wire size %d",
			perMsg, s.Node(0).Params().WireBytes())
	}
}

package fed

import (
	"testing"

	"github.com/collablearn/ciarec/internal/transport"
)

// The fed broadcast is accounted per sampled client, and wire byte
// accounting must agree exactly with the WireBytes predictor.
func TestTransportBroadcastAccounting(t *testing.T) {
	d := fedTestDataset(t)
	tr := transport.NewWire()
	cfg := fedConfig(d)
	cfg.Rounds = 2
	cfg.Transport = tr
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	st := tr.Stats()
	wantMsgs := int64(d.NumUsers * cfg.Rounds)
	if st.BroadcastMessages != wantMsgs {
		t.Fatalf("broadcast messages = %d, want %d", st.BroadcastMessages, wantMsgs)
	}
	perMsg := int64(s.Global().Params().WireBytes())
	if st.BroadcastBytes != wantMsgs*perMsg {
		t.Fatalf("broadcast bytes = %d, want %d", st.BroadcastBytes, wantMsgs*perMsg)
	}
	if st.Messages != wantMsgs || st.Bytes != wantMsgs*perMsg {
		t.Fatalf("upload accounting %+v, want %d msgs × %d bytes", st, wantMsgs, perMsg)
	}
}

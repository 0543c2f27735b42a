package fed

import (
	"testing"

	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/transport"
)

func TestDropoutReducesUploads(t *testing.T) {
	d := fedTestDataset(t)
	cfg := fedConfig(d)
	cfg.Rounds = 10
	cfg.DropoutProb = 0.4
	obs := &countingObserver{}
	cfg.Observer = obs
	tr := transport.NewInproc()
	cfg.Transport = tr
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	expected := 0.6 * float64(d.NumUsers*cfg.Rounds)
	if got := float64(obs.uploads); got < 0.4*expected || got > 1.4*expected {
		t.Fatalf("uploads = %v, want ~%v under 40%% dropout", got, expected)
	}
	if got := tr.Stats().Messages; got != int64(obs.uploads) {
		t.Fatalf("traffic messages %d != observed uploads %d", got, obs.uploads)
	}
}

// Training must still converge (more slowly) despite dropout — the
// federation tolerates crash-stop clients.
func TestDropoutDoesNotBreakTraining(t *testing.T) {
	d := fedTestDataset(t)
	cfg := fedConfig(d)
	cfg.Rounds = 25
	cfg.Train.Epochs = 2
	cfg.DropoutProb = 0.3
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := s.UtilityHR(10, 30)
	s.Run()
	after := s.UtilityHR(10, 30)
	if after <= before {
		t.Fatalf("training under dropout did not improve HR: %.3f -> %.3f", before, after)
	}
}

func TestDropoutValidation(t *testing.T) {
	d := fedTestDataset(t)
	cfg := fedConfig(d)
	cfg.DropoutProb = 1
	if _, err := New(cfg); err == nil {
		t.Fatal("DropoutProb=1 must be rejected (no uploads ever)")
	}
	cfg.DropoutProb = -0.1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative DropoutProb must be rejected")
	}
}

func TestTrafficAccounting(t *testing.T) {
	d := fedTestDataset(t)
	cfg := fedConfig(d)
	cfg.Rounds = 2
	tr := transport.NewInproc()
	cfg.Transport = tr
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	st := tr.Stats()
	if st.Messages != int64(d.NumUsers*2) {
		t.Fatalf("messages = %d, want %d", st.Messages, d.NumUsers*2)
	}
	perMsg := int64(s.Global().Params().WireBytes())
	if st.Bytes != st.Messages*perMsg {
		t.Fatalf("bytes = %d, want %d", st.Bytes, st.Messages*perMsg)
	}
}

func TestTrafficShrinksUnderShareLess(t *testing.T) {
	d := fedTestDataset(t)
	full := fedConfig(d)
	full.Rounds = 2
	trFull := transport.NewInproc()
	full.Transport = trFull
	sFull, err := New(full)
	if err != nil {
		t.Fatal(err)
	}
	sFull.Run()

	sl := fedConfig(d)
	sl.Rounds = 2
	sl.Policy = defense.ShareLess{Tau: 1}
	trSL := transport.NewInproc()
	sl.Transport = trSL
	sSL, err := New(sl)
	if err != nil {
		t.Fatal(err)
	}
	sSL.Run()

	if trSL.Stats().Bytes >= trFull.Stats().Bytes {
		t.Fatalf("share-less should shrink messages: %d >= %d",
			trSL.Stats().Bytes, trFull.Stats().Bytes)
	}
}

package main

import (
	"runtime"

	"greenhetero/internal/battery"
	"greenhetero/internal/sim"
)

// rackLayers is the traced rack-year's instrumentation: one lane, since
// the rack steps serially.
type rackLayers struct {
	l *lane
}

// runRackYear steps one Comb5 rack through a year, closed loop, timing
// every Session.Step. With heap set it measures the live heap at the end
// (a forced GC, so only on a repetition whose times are not used). With
// tl set, the policy, the predictors and the battery are wrapped and
// each step is a span.
func runRackYear(seed int64, heap bool, tl *rackLayers) (rep, error) {
	t0 := now()
	cfg, err := rackYearConfig(seed)
	if err != nil {
		return rep{}, err
	}
	if tl != nil {
		// The wrapped bank is built exactly as NewSession builds its own.
		bank, err := battery.New(battery.DefaultConfig())
		if err != nil {
			return rep{}, err
		}
		if err := bank.SetSoC(1); err != nil {
			return rep{}, err
		}
		cfg.Policy = &tracedPolicy{inner: cfg.Policy, l: tl.l}
		cfg.PredictorFactory = holtFactory(tl.l)
		cfg.Bank = &tracedStore{inner: bank, l: tl.l}
	}
	sess, err := sim.NewSession(cfg)
	if err != nil {
		return rep{}, err
	}
	res := sess.NewResult()
	r := rep{epochUs: make([]float64, 0, cfg.Epochs)}
	r.setupS = float64(now()-t0) / 1e9

	m0 := readMem()
	start := now()
	for e := 0; !sess.Done(); e++ {
		var sp int32
		if tl != nil {
			tl.l.epoch = int32(e)
			sp = tl.l.begin(kStep)
		}
		a := now()
		er, err := sess.Step()
		b := now()
		if tl != nil {
			tl.l.end(sp)
		}
		r.ops++
		if err != nil {
			r.failed++
			return r, err
		}
		r.epochUs = append(r.epochUs, float64(b-a)/1e3)
		res.Epochs = append(res.Epochs, er)
	}
	r.loopS = float64(now()-start) / 1e9
	r.mem = m0.to(readMem())
	r.rackEpochs = float64(len(res.Epochs))
	if heap {
		r.liveHeap = liveHeap()
		runtime.KeepAlive(sess)
	}
	r.out = rackOutputs(res)
	return r, nil
}

package chipletnet

import (
	"context"
	"errors"
	"runtime"

	"chipletnet/internal/verify"
)

// VerifyRouting statically certifies the routing function installed on the
// built system: one traversal of the (node, destination, tag-class) state
// space proves deadlock freedom (acyclic escape-CDG, Duato's criterion for
// virtual cut-through), total reachability, livelock freedom (bounded
// adaptive runs and terminating escape walks) and VC discipline (Theorem
// 1's monotone escape classes). The returned report carries concrete
// witnesses, in deterministic sorted order, for whichever proof obligation
// fails. The analysis only reads routing state; the system can still be
// simulated afterwards.
func (s *System) VerifyRouting(opt verify.Options) *verify.Report {
	return verify.Run(s.Topo, opt)
}

// Certify runs VerifyRouting and distills the verdict into the exportable
// content-addressable certificate (see verify.Certificate).
func (s *System) Certify(opt verify.Options) (*verify.Certificate, *verify.Report) {
	rep := s.VerifyRouting(opt)
	return rep.Certificate(), rep
}

// VerifyConfig builds the system described by cfg and statically verifies
// its routing function. The error is non-nil only for build failures;
// verification verdicts (including failures) are in the report — gate on
// Report.Err for pre-flight use.
func VerifyConfig(cfg Config, opt verify.Options) (*verify.Report, error) {
	sys, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	return sys.VerifyRouting(opt), nil
}

// VerifyBatch runs VerifyConfig(cfgs[i], opt) for every configuration on
// the module root's GOMAXPROCS-bounded worker pool (the one RunBatch
// uses) and returns the reports and build errors in input order,
// regardless of scheduling: errs[i] is nil exactly when reports[i] is
// set. A panic is recovered into that configuration's error, and
// configurations not started before ctx is done are skipped with an error
// wrapping ErrCanceled; a started analysis runs to completion. opt must
// carry no Sink, which concurrent analyses would feed interleaved.
func VerifyBatch(ctx context.Context, cfgs []Config, opt verify.Options) ([]*verify.Report, []error) {
	reports := make([]*verify.Report, len(cfgs))
	errs := forEach(ctx, len(cfgs), runtime.GOMAXPROCS(0), func(i int) error {
		if opt.Sink != nil {
			return errors.New("chipletnet: VerifyBatch takes no state sink")
		}
		var err error
		reports[i], err = VerifyConfig(cfgs[i], opt)
		return err
	})
	return reports, errs
}

#include "dram/timing.h"

namespace hbmrd::dram {

namespace {

void require(bool ok, const char* rule, Cycle now) {
  if (!ok) {
    throw TimingViolation(std::string("timing violation: ") + rule +
                          " at cycle " + std::to_string(now));
  }
}

}  // namespace

void RefreshClock::on_refresh(Cycle now, const TimingParams& p) {
  if (refs > 0) require(now >= last_ref + p.t_rfc, "tRFC (REF to REF)", now);
  ++refs;
  last_ref = now;
}

void BankTimingChecker::on_activate(Cycle now, const RefreshClock& channel) {
  require(!open_, "ACT to an already-open bank (missing PRE)", now);
  if (ever_activated_) {
    require(now >= last_act_ + p_.t_rc, "tRC (ACT to ACT)", now);
    require(now >= last_pre_ + p_.t_rp, "tRP (PRE to ACT)", now);
  }
  if (channel.refs > 0) {
    require(now >= channel.last_ref + p_.t_rfc, "tRFC (REF to ACT)", now);
  }
  open_ = true;
  ever_activated_ = true;
  last_act_ = now;
}

void BankTimingChecker::on_precharge(Cycle now) {
  // PRE to an already-precharged bank is a legal no-op (PREA does this).
  if (!open_) return;
  require(now >= last_act_ + p_.t_ras, "tRAS (ACT to PRE)", now);
  open_ = false;
  last_pre_ = now;
}

void BankTimingChecker::on_read(Cycle now) const {
  require(open_, "RD to a closed bank", now);
  require(now >= last_act_ + p_.t_rcd, "tRCD (ACT to RD)", now);
}

void BankTimingChecker::on_write(Cycle now) const {
  require(open_, "WR to a closed bank", now);
  require(now >= last_act_ + p_.t_rcd, "tRCD (ACT to WR)", now);
}

void BankTimingChecker::check_refresh(Cycle now) const {
  require(!open_, "REF with an open bank (missing PRE)", now);
  if (ever_activated_) {
    require(now >= last_pre_ + p_.t_rp, "tRP (PRE to REF)", now);
  }
}

void BankTimingChecker::on_window(Cycle first_act, Cycle last_act,
                                  Cycle last_pre,
                                  const RefreshClock& channel) {
  on_activate(first_act, channel);
  open_ = false;
  last_act_ = last_act;
  last_pre_ = last_pre;
}

}  // namespace hbmrd::dram

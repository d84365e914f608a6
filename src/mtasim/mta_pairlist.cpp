#include "mtasim/mta_pairlist.h"

#include "md/backend.h"

namespace emdpa::mta {

namespace {

constexpr double kPairlistOpsPerEntry = 27;   // see mta_pairlist.h
constexpr double kBuildOpsPerTest = 31;
constexpr double kBinOpsPerAtom = 12;

double n2_instructions(const md::PairlistStepWork& work) {
  // The code shape the MTA/XMT backends charge for the on-the-fly kernel.
  return md::kSearch27OpsPerCandidate * work.candidates_directed +
         md::kLjOpsPerInteraction * work.interacting_directed;
}

double pairlist_instructions(const md::PairlistStepWork& work) {
  return kPairlistOpsPerEntry * work.list_entries_directed +
         md::kLjOpsPerInteraction * work.interacting_directed +
         (kBuildOpsPerTest * work.build_tests_directed +
          kBinOpsPerAtom * static_cast<double>(work.n_atoms)) /
             work.rebuild_period_steps;
}

ModelTime mta_time(const MtaConfig& config, double instructions,
                   std::uint64_t threads) {
  StreamMachine machine(config);
  return machine.charge_parallel(instructions, threads);
}

}  // namespace

ModelTime mta_n2_step_time(const MtaConfig& config,
                           const md::PairlistStepWork& work) {
  return mta_time(config, n2_instructions(work), work.n_atoms);
}

ModelTime mta_pairlist_step_time(const MtaConfig& config,
                                 const md::PairlistStepWork& work) {
  // One stream per atom row, as in the N^2 loop; the gather itself costs
  // nothing extra on the flat network.
  return mta_time(config, pairlist_instructions(work), work.n_atoms);
}

ModelTime xmt_n2_step_time(const XmtConfig& config,
                           const md::PairlistStepWork& work) {
  return xmt_parallel_time(config, n2_instructions(work),
                           naive_remote_fraction(config.n_processors));
}

ModelTime xmt_pairlist_step_time(const XmtConfig& config,
                                 const md::PairlistStepWork& work) {
  // The pairlist loop is shorter but reference-denser: the remote-traffic
  // bottleneck sees kPairlistRefDensityFactor more loads per instruction.
  XmtConfig denser = config;
  denser.refs_per_instruction *= kPairlistRefDensityFactor;
  return xmt_parallel_time(denser, pairlist_instructions(work),
                           naive_remote_fraction(config.n_processors));
}

}  // namespace emdpa::mta

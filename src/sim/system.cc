#include "sim/system.hh"

#include <cmath>

#include "cpu/functional_core.hh"
#include "cpu/inorder_core.hh"
#include "cpu/ooo_core.hh"
#include "telemetry/run_telemetry.hh"
#include "telemetry/timeline.hh"

namespace rcache
{

std::string
coreModelName(CoreModel m)
{
    switch (m) {
      case CoreModel::OutOfOrder:
        return "out-of-order/non-blocking";
      case CoreModel::InOrder:
        return "in-order/blocking";
    }
    rc_panic("bad core model");
}

void
priceEnergy(RunResult &res, const SystemConfig &cfg)
{
    res.energy = ProcessorEnergyModel(cfg.energy)
                     .compute(res.activity, res.energyInputs,
                              resizableTagBits(cfg.il1Org, cfg.il1,
                                               cfg.policy),
                              resizableTagBits(cfg.dl1Org, cfg.dl1,
                                               cfg.policy));
}

System::System(const SystemConfig &cfg)
    : cfg_(cfg),
      model_(cfg.coreModel),
      il1_("il1", cfg.il1, cfg.il1Org, cfg.policy),
      dl1_("dl1", cfg.dl1, cfg.dl1Org, cfg.policy),
      hier_(&il1_.cache(), &dl1_.cache(), cfg.l2, cfg.lat)
{
    // Multi-core configs go through MultiCoreSystem; accepting one
    // here would silently simulate only core 0.
    rc_assert(cfg.cores == 1);
}

System::System(const SystemConfig &cfg, SharedL2 &shared_l2,
               unsigned core_id)
    : cfg_(cfg),
      model_(cfg.modelOfCore(core_id)),
      il1_("il1", cfg.il1, cfg.il1Org, cfg.policy, core_id),
      dl1_("dl1", cfg.dl1, cfg.dl1Org, cfg.policy, core_id),
      hier_(&il1_.cache(), &dl1_.cache(), shared_l2, core_id, cfg.lat)
{
}

System::~System() = default;

void
System::dumpStats(std::ostream &os) const
{
    il1_.cache().stats().dump(os);
    dl1_.cache().stats().dump(os);
    hier_.l2().stats().dump(os);
}

ResizePolicy *
System::reacting(const std::unique_ptr<ResizePolicy> &policy)
{
    // A static policy applied its level at construction; handing it
    // to a core would only cost a no-op call per L1 access.
    return policy && policy->strategy() == Strategy::Dynamic
               ? policy.get()
               : nullptr;
}

std::unique_ptr<ResizePolicy>
System::makePolicy(ResizableCache &cache, const ResizeSetup &setup)
{
    switch (setup.strategy) {
      case Strategy::None:
        return nullptr;
      case Strategy::Static:
        rc_assert(cache.organization() != Organization::None ||
                  setup.staticLevel == 0);
        return std::make_unique<StaticPolicy>(
            cache, hier_.l1WritebackSink(), setup.staticLevel);
      case Strategy::Dynamic:
        rc_assert(cache.organization() != Organization::None);
        return std::make_unique<DynamicMissRatioController>(
            cache, hier_.l1WritebackSink(), setup.dyn);
    }
    rc_panic("bad strategy");
}

void
System::open(const ResizeSetup &il1_setup, const ResizeSetup &dl1_setup,
             EngineMode mode, RunTelemetry *telemetry)
{
    rc_assert(!ran_);
    ran_ = true;
    mode_ = mode;
    telemetry_ = telemetry;
    il1Policy_ = makePolicy(il1_, il1_setup);
    dl1Policy_ = makePolicy(dl1_, dl1_setup);

    if (telemetry && telemetry->resizeEvents) {
        const ResizeTelemetry sink{&telemetry->events, hier_.coreId(),
                                   cfg_.core.wbDrainLatency};
        if (auto *dyn = dynamic_cast<DynamicMissRatioController *>(
                il1Policy_.get()))
            dyn->setTelemetry(sink);
        if (auto *dyn = dynamic_cast<DynamicMissRatioController *>(
                dl1Policy_.get()))
            dyn->setTelemetry(sink);
    }

    if (model_ == CoreModel::OutOfOrder) {
        core_ = std::make_unique<OooCore>(cfg_.core, hier_,
                                          reacting(il1Policy_),
                                          reacting(dl1Policy_));
    } else {
        core_ = std::make_unique<InOrderCore>(cfg_.core, hier_,
                                              reacting(il1Policy_),
                                              reacting(dl1Policy_));
    }

    if (telemetry && telemetry->wantsTimeline()) {
        TimelineSources src;
        src.core = hier_.coreId();
        src.il1 = &il1_.cache();
        src.dl1 = &dl1_.cache();
        src.il1ExtraTagBits = il1_.extraTagBits();
        src.dl1ExtraTagBits = dl1_.extraTagBits();
        src.l2Accesses = [this] { return hier_.l2Accesses(); };
        src.l2Misses = [this] { return hier_.l2Misses(); };
        src.memAccesses = [this] { return hier_.memAccesses(); };
        src.l2SizeBytes = hier_.l2().geometry().size;
        src.timingCore = core_.get();
        src.energy = &cfg_.energy;
        recorder_ = std::make_unique<TimelineRecorder>(
            src, telemetry->timelineInterval);
        core_->setProbe(recorder_.get());
    }
}

RunResult
System::run(Workload &workload, std::uint64_t num_insts,
            const ResizeSetup &il1_setup, const ResizeSetup &dl1_setup,
            const EngineSpec &engine, RunTelemetry *telemetry)
{
    engine.validate();
    if (engine.analytic())
        rc_fatal("the analytic engine does not run Systems; dispatch "
                 "through executeRunJob");

    open(il1_setup, dl1_setup, engine.mode, telemetry);
    drive(workload, num_insts, engine, self());
    return result(workload.name(), num_insts);
}

System::Counters
System::counters() const
{
    return {CacheActivity::of(il1_.cache()),
            CacheActivity::of(dl1_.cache()), hier_.l2Accesses(),
            hier_.l2Misses(), hier_.memAccesses()};
}

void
System::beginMeasure(std::uint64_t n)
{
    core_->resetTiming();
    il1_.cache().restartTimeAccounting();
    dl1_.cache().restartTimeAccounting();
    windowStart_ = counters();
    core_->begin(n);
}

void
System::endMeasure()
{
    const CoreActivity act = core_->finish();
    il1_.cache().accumulateEnabledTime(act.cycles);
    dl1_.cache().accumulateEnabledTime(act.cycles);

    const Counters now = counters();
    measured_.activity += act;
    measured_.il1 += now.il1 - windowStart_.il1;
    measured_.dl1 += now.dl1 - windowStart_.dl1;
    measured_.l2Accesses += now.l2Accesses - windowStart_.l2Accesses;
    measured_.l2Misses += now.l2Misses - windowStart_.l2Misses;
    measured_.memAccesses += now.memAccesses - windowStart_.memAccesses;
}

void
System::beginWarm(std::uint64_t n)
{
    if (!func_) {
        func_ = std::make_unique<FunctionalCore>(
            hier_, core_->predictor(), cfg_.core.fetchWidth,
            reacting(il1Policy_), reacting(dl1Policy_));
        func_->setProbe(recorder_.get());
    }
    // A measured window may have moved the stream since the last
    // warm span.
    func_->invalidateFetchBlock();
    func_->begin(n);
    measured_.warmupInsts += n;
}

void
System::feedWarm(const MicroInst *insts, std::size_t n)
{
    func_->feed(insts, n);
}

void
System::measure(Workload &workload, std::uint64_t n)
{
    driveMeasure(workload, n, self());
}

void
System::warm(Workload &workload, std::uint64_t n)
{
    driveWarm(workload, n, self());
}

std::uint64_t
System::period(Workload &workload, const SamplingConfig &sampling,
               std::uint64_t remaining)
{
    return drivePeriod(workload, sampling, remaining, self());
}

RunResult
System::result(const std::string &workload, std::uint64_t insts)
{
    // Extrapolate the measured windows to the whole run (scale 1 for
    // full detail). Counts are rounded once at the end, never per
    // window, so the estimate is independent of the window count for
    // a fixed measured fraction.
    const Measured &m = measured_;
    rc_assert(m.activity.insts > 0);
    const double scale = static_cast<double>(insts) /
                         static_cast<double>(m.activity.insts);
    const auto scaleCount = [scale](double v) {
        return static_cast<std::uint64_t>(std::llround(v * scale));
    };

    RunResult res;
    res.workload = workload;
    res.engine = mode_;
    res.measuredInsts = m.activity.insts;
    res.warmupInsts = m.warmupInsts;

    CoreActivity &a = res.activity;
    a.outOfOrder = m.activity.outOfOrder;
    a.insts = insts;
    a.cycles = scaleCount(m.activity.cycles);
    a.intOps = scaleCount(m.activity.intOps);
    a.fpOps = scaleCount(m.activity.fpOps);
    a.loads = scaleCount(m.activity.loads);
    a.stores = scaleCount(m.activity.stores);
    a.branches = scaleCount(m.activity.branches);
    a.mispredicts = scaleCount(m.activity.mispredicts);
    res.insts = a.insts;
    res.cycles = a.cycles;

    // The L2 and memory terms price this core's attributed traffic;
    // the L2's size-proportional term is charged over this core's
    // cycles.
    const auto l2_accesses = static_cast<double>(m.l2Accesses);
    EnergyInputs &in = res.energyInputs;
    in.il1 = m.il1.scaled(scale);
    in.dl1 = m.dl1.scaled(scale);
    in.l2Accesses = l2_accesses * scale;
    in.l2SizeBytes = hier_.l2().geometry().size;
    in.memAccesses = static_cast<double>(m.memAccesses) * scale;
    priceEnergy(res, cfg_);

    const double cyc = static_cast<double>(m.activity.cycles);
    res.avgIl1Bytes = cyc > 0 ? m.il1.byteCycles / cyc : 0.0;
    res.avgDl1Bytes = cyc > 0 ? m.dl1.byteCycles / cyc : 0.0;
    res.il1MissRatio = m.il1.missRatio();
    res.dl1MissRatio = m.dl1.missRatio();
    res.l2MissRatio = m.l2Accesses > 0
                          ? static_cast<double>(m.l2Misses) / l2_accesses
                          : 0.0;
    res.il1Accesses = scaleCount(m.il1.accesses);
    res.il1Misses = scaleCount(m.il1.misses);
    res.dl1Accesses = scaleCount(m.dl1.accesses);
    res.dl1Misses = scaleCount(m.dl1.misses);

    res.il1Resizes = il1_.cache().resizes();
    res.dl1Resizes = dl1_.cache().resizes();
    if (auto *dyn = dynamic_cast<DynamicMissRatioController *>(
            il1Policy_.get()))
        res.il1LevelTrace = dyn->levelTrace();
    if (auto *dyn = dynamic_cast<DynamicMissRatioController *>(
            dl1Policy_.get()))
        res.dl1LevelTrace = dyn->levelTrace();

    if (recorder_) {
        auto rows = recorder_->takeRows();
        telemetry_->timeline.insert(telemetry_->timeline.end(),
                                    rows.begin(), rows.end());
    }
    return res;
}

} // namespace rcache

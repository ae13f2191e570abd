#include "sim/system.hh"

#include <cmath>

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

System::System(const SystemConfig &cfg)
    : cfg_(cfg),
      il1_("il1", cfg.il1, cfg.il1Org, cfg.policy),
      dl1_("dl1", cfg.dl1, cfg.dl1Org, cfg.policy),
      hier_(&il1_.cache(), &dl1_.cache(), cfg.l2, cfg.lat)
{
    // Multi-core configs go through MultiCoreSystem; accepting one
    // here would silently simulate only core 0.
    rc_assert(cfg.cores == 1);
}

System::~System() = default;

void
System::dumpStats(std::ostream &os) const
{
    il1_.cache().stats().dump(os);
    dl1_.cache().stats().dump(os);
    hier_.l2().stats().dump(os);
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
System::wire(const ResizeSetup &il1_setup, const ResizeSetup &dl1_setup,
             RunTelemetry *telemetry)
{
    rc_assert(!ran_);
    ran_ = true;
    telemetry_ = telemetry;
    il1Policy_ = makePolicy(il1_, il1_setup);
    dl1Policy_ = makePolicy(dl1_, dl1_setup);

    if (telemetry && telemetry->resizeEvents) {
        const ResizeTelemetry sink{&telemetry->events, 0,
                                   cfg_.core.wbDrainLatency};
        if (auto *dyn = dynamic_cast<DynamicMissRatioController *>(
                il1Policy_.get()))
            dyn->setTelemetry(sink);
        if (auto *dyn = dynamic_cast<DynamicMissRatioController *>(
                dl1Policy_.get()))
            dyn->setTelemetry(sink);
    }

    if (cfg_.coreModel == CoreModel::OutOfOrder) {
        core_ = std::make_unique<OooCore>(cfg_.core, hier_,
                                          il1Policy_.get(),
                                          dl1Policy_.get());
    } else {
        core_ = std::make_unique<InOrderCore>(cfg_.core, hier_,
                                              il1Policy_.get(),
                                              dl1Policy_.get());
    }

    if (telemetry && telemetry->wantsTimeline()) {
        TimelineSources src;
        src.core = 0;
        src.il1 = &il1_.cache();
        src.dl1 = &dl1_.cache();
        src.il1ExtraTagBits = il1_.extraTagBits();
        src.dl1ExtraTagBits = dl1_.extraTagBits();
        src.l2Accesses = [this] { return hier_.l2().accesses(); };
        src.l2Misses = [this] { return hier_.l2().misses(); };
        src.memAccesses = [this] {
            return hier_.memReads() + hier_.memWrites();
        };
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

    if (!engine.sampled()) {
        start(num_insts, il1_setup, dl1_setup, telemetry);
        forEachBatch(workload, num_insts,
                     [this](const MicroInst *insts, std::size_t n) {
                         feed(insts, n);
                     });
        return finish(workload.name());
    }

    wire(il1_setup, dl1_setup, telemetry);
    SamplingController sampler(engine.sampling, hier_, il1_, dl1_,
                               il1Policy_.get(), dl1Policy_.get());
    if (recorder_)
        sampler.setProbe(recorder_.get());
    const SampledStats s = sampler.run(*core_, workload, num_insts);

    RunResult res;
    res.workload = workload.name();
    res.engine = EngineMode::Sampled;
    res.measuredInsts = s.measuredInsts;
    res.warmupInsts = s.warmupInsts;
    res.activity = s.activity;
    res.insts = s.activity.insts;
    res.cycles = s.activity.cycles;
    res.energy = ProcessorEnergyModel(cfg_.energy)
                     .compute(s.activity, s.il1, il1_.extraTagBits(),
                              s.dl1, dl1_.extraTagBits(),
                              s.l2Accesses,
                              hier_.l2().geometry().size,
                              s.memAccesses);
    res.avgIl1Bytes = s.avgIl1Bytes;
    res.avgDl1Bytes = s.avgDl1Bytes;
    res.il1MissRatio = s.il1MissRatio;
    res.dl1MissRatio = s.dl1MissRatio;
    res.l2MissRatio = s.l2MissRatio;
    res.il1Accesses =
        static_cast<std::uint64_t>(std::llround(s.il1.accesses));
    res.il1Misses =
        static_cast<std::uint64_t>(std::llround(s.il1.misses));
    res.dl1Accesses =
        static_cast<std::uint64_t>(std::llround(s.dl1.accesses));
    res.dl1Misses =
        static_cast<std::uint64_t>(std::llround(s.dl1.misses));
    return collect(std::move(res));
}

void
System::start(std::uint64_t num_insts, const ResizeSetup &il1_setup,
              const ResizeSetup &dl1_setup, RunTelemetry *telemetry)
{
    wire(il1_setup, dl1_setup, telemetry);
    core_->begin(num_insts);
}

RunResult
System::finish(const std::string &workload)
{
    RunResult res;
    res.workload = workload;
    res.activity = core_->finish();
    res.insts = res.activity.insts;
    res.cycles = res.activity.cycles;
    res.measuredInsts = res.insts;

    // Close the enabled-size integrals over the whole run.
    il1_.cache().accumulateEnabledTime(res.cycles);
    dl1_.cache().accumulateEnabledTime(res.cycles);

    res.energy = ProcessorEnergyModel(cfg_.energy)
                     .compute(res.activity, il1_.cache(),
                              il1_.extraTagBits(), dl1_.cache(),
                              dl1_.extraTagBits(), hier_.l2(),
                              hier_.memReads() + hier_.memWrites());

    res.avgIl1Bytes = il1_.cache().byteCycles() / res.cycles;
    res.avgDl1Bytes = dl1_.cache().byteCycles() / res.cycles;
    res.il1MissRatio = il1_.cache().missRatio();
    res.dl1MissRatio = dl1_.cache().missRatio();
    res.l2MissRatio = hier_.l2().missRatio();
    res.il1Accesses = il1_.cache().accesses();
    res.il1Misses = il1_.cache().misses();
    res.dl1Accesses = dl1_.cache().accesses();
    res.dl1Misses = dl1_.cache().misses();
    return collect(std::move(res));
}

RunResult
System::collect(RunResult res)
{
    res.il1Resizes = il1_.cache().resizes();
    res.dl1Resizes = dl1_.cache().resizes();

    if (auto *dyn = dynamic_cast<DynamicMissRatioController *>(
            il1Policy_.get())) {
        res.il1LevelTrace = dyn->levelTrace();
    }
    if (auto *dyn = dynamic_cast<DynamicMissRatioController *>(
            dl1Policy_.get())) {
        res.dl1LevelTrace = dyn->levelTrace();
    }

    if (recorder_) {
        auto rows = recorder_->takeRows();
        telemetry_->timeline.insert(telemetry_->timeline.end(),
                                    rows.begin(), rows.end());
    }
    return res;
}

} // namespace rcache

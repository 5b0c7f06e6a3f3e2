/**
 * @file
 * Deployment-level model of the WebConf web-conferencing workload
 * (§III-Q1, Fig. 4).
 *
 * WebConf provisions VMs across availability zones and keeps the
 * *deployment-level* average CPU utilization below a target (50%)
 * so one AZ can absorb another's failover load.  Each VM hosts
 * conference calls; its utilization is work / (cores * speed), so
 * overclocking a VM lowers its utilization by the frequency speedup.
 * The model demonstrates why instance-level overclocking triggers
 * are wasteful when the deployment-level goal is already met.
 */

#ifndef SOC_WORKLOAD_WEBCONF_HH
#define SOC_WORKLOAD_WEBCONF_HH

#include <vector>

#include "power/frequency.hh"

namespace soc
{
namespace workload
{

/**
 * A WebConf deployment: a set of VMs with load expressed in
 * call-processing units.
 */
class WebConfDeployment
{
  public:
    /**
     * @param target_util Deployment-level utilization goal (0.5 in
     *                    the paper).
     * @param mem_bound_frac Fraction of call processing insensitive
     *                    to frequency.
     */
    explicit WebConfDeployment(double target_util = 0.5,
                               double mem_bound_frac = 0.2);

    /**
     * Add a VM.
     *
     * @param cores     VM core count.
     * @param load_units Work such that utilization at turbo equals
     *                  load_units / cores.
     * @return VM index.
     */
    int addVm(int cores, double load_units);

    std::size_t vmCount() const { return vms_.size(); }

    void setLoad(int vm, double load_units);
    void setFrequency(int vm, power::FreqMHz f);

    /** Utilization of @p vm at its current frequency, in [0, 1]. */
    double vmUtil(int vm) const;

    /** Core-weighted mean utilization across the deployment. */
    double deploymentUtil() const;

    /** @return true when the deployment-level goal is met. */
    bool meetsTarget() const { return deploymentUtil() <= targetUtil_; }

    /**
     * Would overclocking @p vm to @p f be *useful* under
     * deployment-level reasoning?  True only if the goal is
     * currently missed and the overclock brings the deployment
     * utilization closer to (or under) the target.
     */
    bool overclockUseful(int vm, power::FreqMHz f) const;

  private:
    struct Vm {
        int cores;
        double loadUnits;
        power::FreqMHz freq = power::kTurboMHz;
    };

    double utilOf(const Vm &vm, power::FreqMHz f) const;

    double targetUtil_;
    double memBoundFrac_;
    std::vector<Vm> vms_;
};

} // namespace workload
} // namespace soc

#endif // SOC_WORKLOAD_WEBCONF_HH

// Simulated Spread-like group communication system.
//
// Architecture mirrors the real Spread deployment the paper uses: one daemon
// per machine, client processes attached to their local daemon, and a
// token-ring total-order protocol among the daemons of each connected
// network component. A daemon may only stamp (sequence and transmit) queued
// messages while it holds the token, which is what makes an "Agreed" (total
// order) multicast cost a fraction of a token cycle on a LAN and several
// hundred milliseconds on the paper's three-site WAN.
//
// Provided services:
//  * agreed multicast within a group (total order, view synchronous),
//  * agreed "ordered unicast" (a sequenced message delivered to a single
//    member; the paper notes GDH's factor-out messages need exactly this),
//  * plain FIFO unicast (direct link latency, no sequencing),
//  * membership: group join/leave, network partition and merge, delivered
//    as views in the agreed stream (all members see the same view sequence
//    interleaved identically with data messages).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/view.h"
#include "fault/hooks.h"
#include "gcs/rekey_batcher.h"
#include "sim/cpu.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "util/bytes.h"
#include "util/thread_annotations.h"

namespace sgk {

/// Callback interface implemented by group members (clients).
class GroupClient {
 public:
  virtual ~GroupClient() = default;
  /// A new view was installed for `group`.
  virtual void on_view(const std::string& group, const View& view,
                       const ViewDelta& delta) = 0;
  /// A data message was delivered in `group`.
  virtual void on_message(const std::string& group, ProcessId sender,
                          const Bytes& payload) = 0;
};

/// Per-network settings. The daemon costs calibrated so the LAN testbed
/// reproduces the paper's measured primitives (section 6.1.1) are constants
/// of spread.cpp.
struct SpreadParams {
  // Fixed at network construction; read-only during the run.
  SGK_CONFINED_TO_RUN;
  /// First ProcessId this network hands out. A multi-group server gives each
  /// group's network a disjoint id block so process ids, which appear in
  /// views, signatures and reports, are globally unique.
  ProcessId first_process_id = 0;
  /// Event-coalescing rekey pipeline (see rekey_batcher.h). Disabled by
  /// default: membership events trigger immediate view updates, exactly the
  /// pre-batching behavior.
  BatchConfig batch;
};

class SpreadNetwork {
  // One simulated GCS instance per run; lives and dies with its Simulator.
  SGK_CONFINED_TO_RUN;

 public:
  SpreadNetwork(Simulator& sim, Topology topology, SpreadParams params = {});
  ~SpreadNetwork();

  SpreadNetwork(const SpreadNetwork&) = delete;
  SpreadNetwork& operator=(const SpreadNetwork&) = delete;

  // ---- process management -------------------------------------------------
  /// Creates a process (client slot) on `machine` and returns its id.
  ProcessId create_process(MachineId machine);
  /// Registers the callback target for `process`.
  void attach(ProcessId process, GroupClient* client);
  MachineId machine_of(ProcessId process) const;
  CpuScheduler& cpu_of(ProcessId process);
  Simulator& simulator() { return sim_; }
  const Topology& topology() const { return topo_; }

  // ---- membership operations ----------------------------------------------
  /// Requests that `process` join `group`; the resulting view is installed
  /// asynchronously after the (modeled) membership protocol completes.
  void join_group(const std::string& group, ProcessId process);
  /// Requests that `process` leave `group`.
  void leave_group(const std::string& group, ProcessId process);
  /// Abrupt disconnect: leaves all groups (same observable effect as leave,
  /// which is how the paper treats crashes).
  void disconnect(ProcessId process);

  /// Installs a fresh view with unchanged membership (a re-key request: the
  /// "session rekeying" policy the paper discusses via Antigone). The key
  /// agreement layer re-keys for the new epoch.
  void refresh_group(const std::string& group, ProcessId requester);

  /// Splits the network into components of machines. Every machine must
  /// appear in exactly one component. Each component rebuilds its token ring
  /// and installs reduced views for the groups it hosts.
  void partition(const std::vector<std::vector<MachineId>>& components);
  /// Heals all partitions: one component with every machine; merged views.
  void heal();

  // ---- data plane ----------------------------------------------------------
  /// Agreed (total order) multicast to all current members of `group`.
  void multicast(const std::string& group, ProcessId sender, Bytes payload);
  /// Agreed-ordered message delivered only to `dest` (still consumes a stamp
  /// in the total order, like an Agreed message addressed to one member).
  void ordered_send(const std::string& group, ProcessId sender, ProcessId dest,
                    Bytes payload);
  /// Direct FIFO unicast: link latency only, no token, no ordering
  /// guarantees across senders. Dropped across partition boundaries.
  void unicast(const std::string& group, ProcessId sender, ProcessId dest,
               Bytes payload);

  // ---- introspection (tests, calibration benches) --------------------------
  /// Time for a token to complete one cycle of `machine`'s component.
  double token_cycle_ms(MachineId machine) const;
  /// Current installed view of `group` as seen by `process`'s daemon.
  std::optional<View> current_view(const std::string& group, ProcessId process) const;
  std::uint64_t messages_stamped() const { return messages_stamped_; }
  /// Number of processes ever created on this network.
  std::size_t process_count() const { return processes_.size(); }
  /// First ProcessId of this network's id block (SpreadParams).
  ProcessId first_process_id() const { return params_.first_process_id; }

  /// Installs a passive wire tap: called once for every stamped data message
  /// with (group, sender, payload bytes). Models the paper's threat model of
  /// a passive outside eavesdropper; used by the secrecy tests.
  void set_wire_tap(
      std::function<void(const std::string&, ProcessId, const Bytes&)> tap) {
    wire_tap_ = std::move(tap);
  }

  /// Installs a wire-fault hook consulted for every daemon-to-daemon message
  /// copy and every client unicast. Pass nullptr to remove. The hook only
  /// perturbs timing and copy counts (links stay reliable — see
  /// fault/hooks.h); total order and view synchrony are preserved.
  void set_fault_hook(fault::WireFaultHook* hook) { fault_hook_ = hook; }

  /// Component index `machine` currently belongs to (chaos drivers use this
  /// to group surviving members for the convergence invariant).
  int component_of_machine(MachineId machine) const {
    return component_of(machine);
  }

  /// The rekey batcher, or nullptr when batching is disabled. Hosts feed it
  /// key-install feedback (`note_key_installed`) and read its per-group
  /// pipeline stats after the run.
  RekeyBatcher* batcher() { return batcher_.get(); }
  const RekeyBatcher* batcher() const { return batcher_.get(); }

 private:
  struct Payload {
    enum Kind { kData, kView } kind = kData;
    std::string group;
    ProcessId sender = kNoProcess;
    ProcessId dest = kNoProcess;  // kNoProcess == all members
    Bytes data;
    // kView:
    View view;
    std::vector<std::vector<ProcessId>> sides;
    bool force = false;  // re-key request: install even if membership unchanged
  };

  struct Stamped {
    std::uint64_t seq;
    MachineId origin;
    Payload payload;
  };

  struct Daemon {
    MachineId machine;
    int component = 0;
    std::uint64_t epoch = 0;
    std::uint64_t expected_seq = 0;
    std::map<std::uint64_t, Stamped> pending;   // out-of-order buffer
    std::vector<Payload> outbox;                // waiting for the token
    std::map<std::string, View> delivered_view; // last installed view per group
  };

  struct Component {
    std::uint64_t epoch = 0;
    std::vector<MachineId> ring;  // ascending machine ids
    std::uint64_t next_seq = 0;
    /// Every message stamped in this component, in order (log[i].seq == i).
    /// Replayed to lagging daemons when a membership change dissolves the
    /// component, so view synchrony survives fault-delayed copies.
    std::vector<Stamped> log;
    bool token_parked = true;
    int token_pos = 0;   // current / parked ring position
    int idle_hops = 0;   // consecutive hops without stamping anything
    // Per group: the previously co-viewed member sets ("sides") used to
    // build the next stamped view's transitional information.
    std::map<std::string, std::vector<std::vector<ProcessId>>> side_seeds;
    // Per group: the member list of the last view stamped in this
    // component's stream (inherited across ring rebuilds), used to suppress
    // duplicate view installs.
    std::map<std::string, std::vector<ProcessId>> last_stamped;
  };

  struct ProcessInfo {
    MachineId machine;
    GroupClient* client = nullptr;
    bool connected = true;
    std::map<std::string, View> last_view;  // per group, as installed
  };

  // Token machinery.
  void schedule_token_arrival(int component_index, std::uint64_t epoch, int pos,
                              SimTime time);
  void token_arrive(int component_index, std::uint64_t epoch, int pos);
  void wake_token(int component_index);
  void enqueue(MachineId daemon, Payload payload);
  void transmit(const Component& comp, MachineId origin, Stamped stamped,
                SimTime depart);
  void daemon_receive(MachineId machine, std::uint64_t epoch, Stamped stamped);
  void daemon_deliver(Daemon& daemon, const Stamped& stamped);
  void deliver_view(Daemon& daemon, const Payload& payload);
  void deliver_data(Daemon& daemon, const Payload& payload);

  // Membership machinery.
  /// Routes one membership event either through the batcher (when enabled)
  /// or straight to request_view_update (the legacy per-event path).
  void membership_event(const std::string& group, int component_index,
                        BatchEventKind kind);
  void partition_impl(const std::vector<std::vector<MachineId>>& components,
                      bool is_merge);
  void request_view_update(const std::string& group, int component_index,
                           bool force = false);
  std::vector<ProcessId> component_members(const std::string& group,
                                           int component_index) const;
  int component_of(MachineId m) const;
  MachineId coordinator(int component_index) const;
  double cycle_ms(const Component& comp) const;

  // Global id <-> local slot translation for this network's id block.
  std::size_t slot_of(ProcessId p) const;
  ProcessInfo& proc(ProcessId p) { return processes_.at(slot_of(p)); }
  const ProcessInfo& proc(ProcessId p) const { return processes_.at(slot_of(p)); }

  Simulator& sim_;
  Topology topo_;
  SpreadParams params_;

  std::vector<Daemon> daemons_;           // index == MachineId
  std::vector<Component> components_;
  std::vector<std::unique_ptr<CpuScheduler>> cpus_;  // per machine
  // Slot i holds ProcessId params_.first_process_id + i (see slot_of()).
  std::vector<ProcessInfo> processes_;

  // group name -> sorted list of member processes (global registry).
  std::map<std::string, std::vector<ProcessId>> group_registry_;
  std::uint64_t next_view_id_ = 1;
  std::uint64_t messages_stamped_ = 0;
  std::function<void(const std::string&, ProcessId, const Bytes&)> wire_tap_;
  fault::WireFaultHook* fault_hook_ = nullptr;
  std::unique_ptr<RekeyBatcher> batcher_;  // non-null iff params_.batch.enabled
  std::uint64_t unicast_mutation_units_ = 0;  // see unicast() mutation point
};

/// Aggregate transport counters over every group a multi-group server
/// hosts. Each group's finalize() absorbs its network once, on the main
/// thread, in ascending group id, so the totals need no lock.
struct SharedSpreadStats {
  // Owned by the server; written only in its main-thread finalize fold.
  SGK_CONFINED_TO_RUN;
  std::uint64_t networks_absorbed = 0;
  std::uint64_t stamped_total = 0;
  std::uint64_t processes_total = 0;

  /// Adds `net`'s lifetime totals.
  void absorb(const SpreadNetwork& net) {
    ++networks_absorbed;
    stamped_total += net.messages_stamped();
    processes_total += static_cast<std::uint64_t>(net.process_count());
  }
};

}  // namespace sgk

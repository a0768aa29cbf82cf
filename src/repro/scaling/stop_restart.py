"""Stop-Checkpoint-Restart: the mainstream-SPE scaling mechanism (§I).

The whole job halts, a global checkpoint is written, the new deployment is
provisioned, state is restored under the new assignment, and processing
resumes.  The downtime — checkpoint + provision + restore — is what the
on-the-fly mechanisms exist to avoid; this controller provides the
reference point.
"""

from __future__ import annotations

from .base import ScalingController

__all__ = ["StopRestartController"]


class StopRestartController(ScalingController):
    """Global halt → checkpoint → redeploy → restore → resume."""

    name = "stop_restart"

    def _execute(self, op_name, plan, scale_id):
        job = self.job
        all_instances = job.all_instances()
        instances = job.instances(op_name)
        signal_id = (scale_id, 0)
        self.metrics.signal_injected(signal_id, self.sim.now)
        for kg in plan.migrating_groups:
            self.metrics.assign_group(kg, signal_id)

        # 1. Global halt with drain-to-quiescence (stop-with-savepoint):
        #    sources stop first and the pipeline empties, so the checkpoint
        #    cut is consistent and no record is stranded in a channel.
        halt_start = self.sim.now
        for source in job.sources():
            source.pause()
        while not self._quiesced(all_instances):
            yield self.sim.timeout(0.01)
        for instance in all_instances:
            instance.pause()

        # 2. Global checkpoint: every instance snapshots all of its state.
        total_bytes = sum(inst.state.total_bytes() for inst in all_instances)
        checkpoint_seconds = total_bytes / job.config.snapshot_bandwidth
        yield self.sim.timeout(checkpoint_seconds)

        # 3. Redeploy with the new configuration.
        new_instances = []
        for _ in plan.new_instance_indices:
            new_instances.append(job.add_instance(op_name))
        yield self.sim.timeout(job.config.instance_init_seconds)
        instances = job.instances(op_name)

        # 4. Restore migrating key-groups under the new assignment (the
        #    checkpoint already paid for serialization).
        for move in plan.moves:
            yield from self._transfer_group(
                instances[move.src_index], instances[move.dst_index],
                move.key_group, charge_extract=False)
        for sender, edge in job.senders_to(op_name):
            for kg, dst in plan.routing_updates().items():
                edge.set_routing(kg, dst)

        # 5. Resume; the halt counts as suspension on every instance.
        for instance in new_instances:
            instance.start()
        for instance in all_instances:
            instance.resume()
        for instance in instances:
            self.metrics.note_suspension(instance, halt_start, self.sim.now)
        self._finalize_assignment(op_name, plan)

    @staticmethod
    def _quiesced(instances) -> bool:
        """True once no element is queued, in flight or being processed.

        A paused source may still hold admitted input, but it may also be
        in the middle of serving one record (its service delay, or a
        backpressured send): that record leaves under the old routing, so
        the source counts as drained only once its loop is parked."""
        for instance in instances:
            if instance.spec.is_source and instance.paused:
                if instance.running and not instance.wake.parked:
                    return False
            elif instance.processing_element:
                return False
            for channel in instance.input_channels:
                if channel.queue:
                    return False
            for channel in instance.router.all_channels():
                if channel.backlog:
                    return False
        return True

"""The serving API surface: frozen InferenceRequest validation, the
InferenceResult alias, ``EdgeServer.infer``'s single-request form, and the
request validation the direct and packed paths share."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import EdgeServer, PlaintextPipeline
from repro.core.server import ServedResult
from repro.errors import KeyMismatchError, ServeError, UnknownModelError
from repro.he.context import Ciphertext
from repro.serve import InferenceRequest, InferenceResult


class TestInferenceRequest:
    def test_frozen(self, session, models):
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        request = InferenceRequest(model="digits", ciphertext=ct)
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.pack = True

    def test_validation(self, session, models):
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        with pytest.raises(ServeError):
            InferenceRequest(model="", ciphertext=ct)
        with pytest.raises(ServeError):
            InferenceRequest(model="digits", ciphertext=ct, priority=-1)
        with pytest.raises(ServeError):
            InferenceRequest(model="digits", ciphertext=ct, slo_deadline_ms=0.0)

    def test_unit_conversions(self, session, models):
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        request = InferenceRequest(
            model="digits", ciphertext=ct, pack=True, slo_deadline_ms=40.0
        )
        assert request.slo_deadline_s == pytest.approx(0.040)
        assert InferenceRequest(model="digits", ciphertext=ct).slo_deadline_s is None

    def test_served_result_is_the_inference_result(self):
        assert ServedResult is InferenceResult


class TestCanonicalInfer:
    def test_request_form_serves_without_warning(
        self, server, session, models, q_sigmoid, recwarn
    ):
        images = models.dataset.test_images[:2]
        request = InferenceRequest(
            model="digits", ciphertext=session.encrypt("digits", images)
        )
        result = server.infer(request)
        assert not [w for w in recwarn if w.category is DeprecationWarning]
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        assert np.array_equal(session.decrypt_logits(result), expected)
        assert result.replica == 0

    def test_request_form_rejects_extra_arguments(self, server, session, models):
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        request = InferenceRequest(model="digits", ciphertext=ct)
        with pytest.raises(TypeError):
            server.infer(request, ct)
        with pytest.raises(TypeError):
            server.infer(request, pack=True)
        with pytest.raises(TypeError):
            server.infer(request, deadline_ms=5.0)

    def test_legacy_positional_form_is_refused(self, server, session, models):
        """The removed ``infer(name, ct, pack=..., deadline_ms=...)`` form
        fails loudly instead of serving."""
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        with pytest.raises(TypeError):
            server.infer("digits", ct)
        with pytest.raises(ServeError, match="InferenceRequest"):
            server.infer("digits")

    def test_request_form_packs_with_deadline(
        self, batching_params, q_sigmoid, session_for, models
    ):
        """A packed request flushes on a zero coalescing deadline: it is
        served at once, with no queue wait, at the server's ``max_batch``."""
        srv = EdgeServer(batching_params, seed=13, max_batch=4)
        srv.provision_model("digits", q_sigmoid)
        session = session_for(srv)
        images = models.dataset.test_images[:2]
        ct = session.encrypt("digits", images)
        result = srv.infer(InferenceRequest(model="digits", ciphertext=ct, pack=True))
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        assert np.array_equal(session.decrypt_logits(result), expected)
        assert result.request_id is not None
        assert result.packed_batch == 2
        assert result.queue_wait_s == 0.0
        assert srv.scheduler.capacity == 4

    def test_deadline_without_pack_is_refused(self, session, models):
        """The request's coalescing deadline is gone (a coalescing window is
        a serving-loop setting): the keyword fails loudly."""
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        with pytest.raises(TypeError, match="deadline_ms"):
            InferenceRequest(model="digits", ciphertext=ct, deadline_ms=5.0)


def _malformed(ct, kind):
    """A request ciphertext broken in one structural way."""
    if kind == "rank":
        return ct[0]
    if kind == "channels":
        doubled = np.concatenate([ct.data, ct.data], axis=1)
        return Ciphertext(ct.context, doubled, is_ntt=ct.is_ntt)
    return ct[:0]


class TestSharedValidation:
    """Direct and packed requests go through one validation: the same
    malformed request gets the same typed error on either path."""

    @pytest.mark.parametrize("pack", [False, True])
    @pytest.mark.parametrize("kind", ["rank", "channels", "empty"])
    def test_malformed_request_rejected_on_both_paths(
        self, server, session, models, kind, pack
    ):
        ct = _malformed(session.encrypt("digits", models.dataset.test_images[:1]), kind)
        request = InferenceRequest(model="digits", ciphertext=ct, pack=pack)
        with pytest.raises(ServeError) as info:
            server.infer(request)
        assert not isinstance(info.value, UnknownModelError)
        assert server.counter.counts.get("ct_plain_mul", 0) == 0

    @pytest.mark.parametrize("pack", [False, True])
    def test_unknown_model_rejected_on_both_paths(self, server, session, models, pack):
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        with pytest.raises(UnknownModelError):
            server.infer(InferenceRequest(model="faces", ciphertext=ct, pack=pack))

    @pytest.mark.parametrize("pack", [False, True])
    def test_foreign_context_rejected_on_both_paths(
        self, server, q_sigmoid, models, pack
    ):
        from repro.core import parameters_for_pipeline
        from repro.he.context import Context
        from repro.he.encoders import ScalarEncoder
        from repro.he.encryptor import Encryptor
        from repro.he.keys import KeyGenerator

        other = Context(parameters_for_pipeline(q_sigmoid, 512, batching=True))
        keys = KeyGenerator(other, np.random.default_rng(0)).generate()
        pixels = q_sigmoid.quantize_images(models.dataset.test_images[:1])
        ct = Encryptor(other, keys.public, np.random.default_rng(1)).encrypt(
            ScalarEncoder(other).encode(pixels)
        )
        with pytest.raises(KeyMismatchError):
            server.infer(InferenceRequest(model="digits", ciphertext=ct, pack=pack))

    def test_packed_rejections_still_counted(self, server, session, models):
        ct = session.encrypt("digits", models.dataset.test_images[:1])[0]
        with pytest.raises(ServeError):
            server.infer(InferenceRequest(model="digits", ciphertext=ct, pack=True))
        with pytest.raises(ServeError):
            server.infer(InferenceRequest(model="digits", ciphertext=ct))
        assert server.scheduler.stats.rejected_malformed == 1

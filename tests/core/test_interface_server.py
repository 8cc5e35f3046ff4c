"""Tests for the SDE Interface Server (the integrated HTTP publication server)."""

import pytest

from repro.core.sde.interface_server import InterfaceServer
from repro.errors import PublicationError
from repro.net.http import HttpClient, HttpRequest


@pytest.fixture
def interface_server(network):
    server = InterfaceServer(network.host("server"), 8080)
    server.start()
    return server


@pytest.fixture
def client(network):
    return HttpClient(network.host("client"))


class TestPublication:
    def test_publish_and_fetch(self, interface_server, client):
        url = interface_server.publish("/wsdl/Calc.wsdl", "<definitions/>")
        response = client.get(url)
        assert response.ok
        assert response.body == "<definitions/>"
        assert response.header("content-type").startswith("text/xml")

    def test_republish_replaces_content(self, interface_server, client):
        interface_server.publish("/doc", "v1", "text/plain")
        interface_server.publish("/doc", "v2", "text/plain")
        assert client.get(interface_server.url_for("/doc")).body == "v2"
        assert interface_server.publication_count("/doc") == 2

    def test_document_is_encoded_once_at_publish(self, interface_server, client):
        content = "<definitions name='Café'>€</definitions>"
        interface_server.publish("/doc", content)
        first = interface_server._serve(HttpRequest("GET", "/doc"))
        second = interface_server._serve(HttpRequest("GET", "/doc?fresh"))
        assert first.body_wire == content.encode("utf-8")
        assert second.body_wire is first.body_wire
        assert client.get(interface_server.url_for("/doc")).body == content
        interface_server.publish("/doc", "v2")
        assert interface_server._serve(HttpRequest("GET", "/doc")).body_wire == b"v2"

    def test_unknown_path_is_404(self, interface_server, client):
        assert client.get(interface_server.url_for("/nothing")).status == 404

    def test_withdraw(self, interface_server, client):
        interface_server.publish("/doc", "content", "text/plain")
        interface_server.withdraw("/doc")
        assert client.get(interface_server.url_for("/doc")).status == 404

    def test_document_accessor(self, interface_server):
        interface_server.publish("/doc", "content", "text/plain")
        assert interface_server.document("/doc") == "content"
        assert interface_server.document("/missing") is None

    def test_published_paths_sorted(self, interface_server):
        interface_server.publish("/b", "x", "text/plain")
        interface_server.publish("/a", "y", "text/plain")
        assert interface_server.published_paths == ("/a", "/b")

    def test_invalid_path_rejected(self, interface_server):
        with pytest.raises(PublicationError):
            interface_server.publish("no-slash", "x")


class TestLifecycle:
    def test_stop_and_restart(self, interface_server, client):
        interface_server.publish("/doc", "content", "text/plain")
        interface_server.stop()
        assert not interface_server.running
        with pytest.raises(Exception):
            client.get(interface_server.url_for("/doc"))
        interface_server.start()
        assert client.get(interface_server.url_for("/doc")).ok

    def test_documents_survive_restart(self, interface_server, client):
        interface_server.publish("/doc", "kept", "text/plain")
        interface_server.stop()
        interface_server.start()
        assert client.get(interface_server.url_for("/doc")).body == "kept"

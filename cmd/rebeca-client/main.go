// rebeca-client is an interactive client for live rebeca-broker nodes: it
// connects to a border broker over TCP, lets you subscribe and publish from
// stdin, and prints each delivery once as it arrives. Roaming between
// brokers is a `connect` away: the session names the broker it left, and
// the middleware relocates it transparently, replaying what arrived for it
// in between.
//
// Usage:
//
//	rebeca-client -id alice -broker localhost:7471
//
// Commands:
//
//	sub <attr> <value>          subscribe to attr == value (string match)
//	subloc <attr> <value>       same, location-dependent (myloc marker)
//	pub <attr>=<val> ...        publish a notification (k=v pairs)
//	pubn <count> <attr>=<val> ...  publish count copies as ONE batch frame
//	                            (an `i` attribute carries the index)
//	connect <host:port>         roam to another border broker
//	disconnect                  drop the link (subscriptions made meanwhile
//	                            travel with the next connect)
//	quit
//
// Publishes are numbered from 1 in every run: a restarted client under the
// same ID sends the same notification IDs again.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"rebeca/internal/client"
	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/wire"
)

func main() {
	id := flag.String("id", "client", "client node ID")
	addr := flag.String("broker", "localhost:7471", "border broker address")
	flag.Parse()
	if err := run(message.NodeID(*id), *addr, os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "connect:", err)
		os.Exit(1)
	}
}

var errQuit = errors.New("quit")

// run connects client id to the border broker at addr and executes the
// commands read from in until EOF or quit. Prompts, acknowledgements and
// deliveries go to out, command errors to errOut. Only a failed first
// connect is returned.
func run(id message.NodeID, addr string, in io.Reader, out, errOut io.Writer) error {
	var mu sync.Mutex // deliveries print from the transport's pump
	printf := func(format string, args ...any) {
		mu.Lock()
		fmt.Fprintf(out, format, args...)
		mu.Unlock()
	}
	var c *client.Client
	rc := wire.NewRemoteClient(id, func(n message.Notification, subs []message.SubID) { c.Deliver(n, subs) })
	c = client.New(id, rc, time.Now)
	c.SetDeliveryLog(-1)
	c.OnDeliver = func(d client.Delivery, _ <-chan struct{}) {
		if len(d.Subs) > 0 {
			printf("<- %s (sub %s)\n", d.Note, d.Subs[0])
		} else {
			printf("<- %s\n", d.Note)
		}
	}
	if err := connect(c, addr, printf); err != nil {
		return err
	}
	defer c.Disconnect()

	sc := bufio.NewScanner(in)
	for {
		printf("> ")
		if !sc.Scan() {
			return nil
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch err := command(c, fields, printf); err {
		case nil:
		case errQuit:
			return nil
		default:
			fmt.Fprintln(errOut, "error:", err)
		}
	}
}

func connect(c *client.Client, addr string, printf func(string, ...any)) error {
	if err := c.Connect(addr); err != nil {
		return err
	}
	printf("connected to %s (broker %s) as %s\n", addr, c.Border(), c.ID())
	return nil
}

func command(c *client.Client, fields []string, printf func(string, ...any)) error {
	switch fields[0] {
	case "quit", "exit":
		return errQuit
	case "disconnect":
		if err := c.Disconnect(); err != nil {
			return err
		}
		printf("disconnected\n")
		return nil
	case "connect":
		if len(fields) != 2 {
			return fmt.Errorf("usage: connect <host:port>")
		}
		return connect(c, fields[1], printf)
	case "sub", "subloc":
		if len(fields) != 3 {
			return fmt.Errorf("usage: %s <attr> <value>", fields[0])
		}
		eq := filter.Eq(fields[1], parseValue(fields[2]))
		f := filter.New(eq)
		if fields[0] == "subloc" {
			f = filter.AtLocation(eq)
		}
		printf("subscribed %s: %s\n", c.Subscribe(f), f)
		return nil
	case "pub":
		if len(fields) < 2 {
			return fmt.Errorf("usage: pub k=v [k=v ...]")
		}
		attrs, err := parseAttrs(fields[1:])
		if err != nil {
			return err
		}
		id, err := c.Publish(attrs)
		if err != nil {
			return err
		}
		printf("published %s\n", id)
		return nil
	case "pubn":
		if len(fields) < 3 {
			return fmt.Errorf("usage: pubn <count> k=v [k=v ...]")
		}
		count, err := strconv.Atoi(fields[1])
		if err != nil || count < 1 {
			return fmt.Errorf("bad count %q", fields[1])
		}
		base, err := parseAttrs(fields[2:])
		if err != nil {
			return err
		}
		batch := make([]map[string]message.Value, count)
		for i := range batch {
			batch[i] = maps.Clone(base)
			batch[i]["i"] = message.Int(int64(i))
		}
		printf("publishing %d notifications in one batch frame\n", count)
		_, err = c.PublishBatch(batch)
		return err
	default:
		return fmt.Errorf("unknown command %q (sub, subloc, pub, pubn, connect, disconnect, quit)", fields[0])
	}
}

// parseAttrs reads k=v pairs.
func parseAttrs(kvs []string) (map[string]message.Value, error) {
	attrs := make(map[string]message.Value, len(kvs)+1)
	for _, kv := range kvs {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("bad attribute %q (want k=v)", kv)
		}
		attrs[k] = parseValue(v)
	}
	return attrs, nil
}

// parseValue guesses the value type: int, float, bool, else string.
func parseValue(s string) message.Value {
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return message.Int(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return message.Float(f)
	}
	if b, err := strconv.ParseBool(s); err == nil {
		return message.Bool(b)
	}
	return message.String(s)
}

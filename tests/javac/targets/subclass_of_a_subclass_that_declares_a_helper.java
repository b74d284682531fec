import android.app.Notification;
import android.media.AudioAttributes;
import android.net.Uri;

class Util {
    AudioAttributes makeAttrs(int u) {
        return null;
    }
}

class Mid extends Util {
}

class R extends Mid {
    void ring(Notification.Builder b, Uri u) {
        b.setSound(u);
    }
}
